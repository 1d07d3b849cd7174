package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"testing"
	"time"
)

// TestWorkloadsSmall runs every workload at about 1% of its pool, briefly,
// untraced and traced: every verdict must be right, nothing may fail, the
// printed metrics must be BENCHMARK.json's, and the traced spans plus
// ccs.unspanned_ms must account for the query's own wall time.
func TestWorkloadsSmall(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range sp.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range sp.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cfg := config{workload: w.name, seed: 1, duration: 200 * time.Millisecond,
				trace: trace, scale: 0.01, workdir: t.TempDir()}
			res, err := runWorkload(io.Discard, cfg)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace %d: correct %v, %d of %d failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want[trace]) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json names %d", w.name, trace, len(res.Metrics), len(want[trace]))
			}
			for name, m := range res.Metrics {
				if unit, ok := want[trace][name]; !ok || unit != m.Unit {
					t.Errorf("%s trace %d: metric %s [%s] not in BENCHMARK.json as printed", w.name, trace, name, m.Unit)
				}
			}
			if trace == 1 {
				spans := 0.0
				for _, name := range spanMetric {
					spans += res.Metrics[name].Value
				}
				if un := res.Metrics["ccs.unspanned_ms"].Value; un < 0 || un > 0.1*(spans+un) {
					t.Errorf("%s: unspanned %.4f ms of %.4f ms traced wall time", w.name, un, spans+un)
				}
			}
		}
	}
}

// TestWindowMedians checks that one slow window moves none of the timing
// metrics, while allocations still count the whole phase.
func TestWindowMedians(t *testing.T) {
	rs := &runStats{acc: newAcc(3), attempted: 30, mallocs: 300,
		winSecs: []float64{2, 2, 2.5},
		winCPU:  []time.Duration{20 * time.Millisecond, 30 * time.Millisecond, 500 * time.Millisecond}}
	for k, ms := range []float64{1, 1.5, 40} {
		for i := 0; i < 10; i++ {
			rs.record(&item{}, outcome{}, ms, k, false)
		}
	}
	got := endToEndMetrics(rs, []float64{0.1})
	for name, want := range map[string]float64{
		"latency_p50_ms":   1.5,
		"latency_p99_ms":   1.5,
		"throughput_qps":   5,
		"cpu_ms_per_query": 3,
		"allocs_per_query": 10,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

func TestStreamsDeterministic(t *testing.T) {
	stream := func(w *workload, seed int64) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, it := range w.pool(rand.New(rand.NewSource(seed)), 0.01) {
			if err := enc.Encode(it.req); err != nil {
				t.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	for _, w := range workloads {
		a, b, c := stream(w, 1), stream(w, 1), stream(w, 2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave two different streams", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", w.name)
		}
	}
}
