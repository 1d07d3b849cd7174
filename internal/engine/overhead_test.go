package engine

import (
	"context"
	"sort"
	"sync"
	"testing"
	"time"

	"ccs/internal/gen"
	"ccs/internal/obs"
)

// BenchmarkObservedOverhead is E22: what the observability layer costs
// while it watches. Each iteration runs the whole design. One warmed
// engine checks relay-13 against its counter on the fly, a full sweep of
// all 2¹³ game pairs, 31 times bare and 31 times fully observed (phase
// tracing plus a 5 ms progress sampler), the two sides alternating which
// goes first. The overhead is the median of the 31 paired ratios, which
// cancels slow host drift and discards the reps where another process
// preempted one side. The iteration fails when the overhead exceeds
// 1.05, when the trace's flat spans cover the observed call's wall time
// by less than 90% or more than 110%, or when the sampler delivers no
// final snapshot.
//
// It is a benchmark, not a test, so that it runs alone: with -bench set,
// go test runs one package binary at a time, while the tests of several
// packages run in parallel and would skew the ratio.
func BenchmarkObservedOverhead(b *testing.B) {
	const (
		reps        = 31
		maxOverhead = 1.05
	)
	ctx := context.Background()
	net, spec := gen.RelayNetwork(13, 3), gen.CounterSpec(13)
	// One engine serves both sides, so both replay the same cached
	// quotients; two engines' caches land in different heap layouts,
	// which reads as a few percent of overhead.
	eng := New()
	check := func(ctx context.Context) OTFInfo {
		eq, info, err := eng.CheckNetworkOTFInfo(ctx, net, spec, Weak, 0)
		if err != nil || !eq {
			b.Fatalf("relay-13 ≈ counter-13: %v, %v", eq, err)
		}
		return info
	}
	check(ctx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var (
			ratios        []float64
			spanSum, wall time.Duration
			snapMu        sync.Mutex
			snaps         []obs.OTFSnapshot
		)
		bare := func() time.Duration {
			start := time.Now()
			check(ctx)
			return time.Since(start)
		}
		observed := func() time.Duration {
			tr := obs.NewTrace("")
			snapMu.Lock()
			snaps = snaps[:0]
			snapMu.Unlock()
			octx := obs.WithOTFProgress(obs.WithTrace(ctx, tr), func(s obs.OTFSnapshot) {
				snapMu.Lock()
				snaps = append(snaps, s)
				snapMu.Unlock()
			}, 5*time.Millisecond)
			start := time.Now()
			check(octx)
			d := time.Since(start)
			spanSum, wall = 0, d
			for _, sp := range tr.Spans() {
				spanSum += sp.Duration
			}
			return d
		}
		for rep := 0; rep < reps; rep++ {
			var dBare, dObs time.Duration
			if rep%2 == 0 {
				dBare, dObs = bare(), observed()
			} else {
				dObs = observed()
				dBare = bare()
			}
			ratios = append(ratios, float64(dObs)/float64(dBare))
		}
		sort.Float64s(ratios)
		overhead := ratios[reps/2]
		cover := float64(spanSum) / float64(wall)
		snapMu.Lock()
		final := len(snaps) > 0 && snaps[len(snaps)-1].Final
		snapMu.Unlock()
		b.ReportMetric(overhead, "overhead-ratio")
		b.ReportMetric(cover, "span-cover")
		if overhead > maxOverhead {
			b.Fatalf("observability overhead %.3fx, want <= %.2fx", overhead, maxOverhead)
		}
		if cover < 0.9 || cover > 1.1 {
			b.Fatalf("spans cover %.1f%% of the observed call's wall time, want within 10%%", 100*cover)
		}
		if !final {
			b.Fatal("the progress sampler delivered no final snapshot")
		}
	}
}
