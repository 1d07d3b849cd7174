package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"ccs/internal/engine"
	"ccs/internal/gen"
	"ccs/internal/obs"
)

// e22JSONPath, when non-empty, is where runE22 writes its BENCH_E22.json
// trajectory. main wires it to the -e22json flag.
var e22JSONPath string

type e22Report struct {
	Experiment  string  `json:"experiment"`
	Description string  `json:"description"`
	Quick       bool    `json:"quick"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GeneratedAt string  `json:"generated_at"`
	Entry       string  `json:"entry"`
	Reps        int     `json:"reps"`
	BaselineNS  int64   `json:"baseline_ns"`
	ObservedNS  int64   `json:"observed_ns"`
	Overhead    float64 `json:"overhead"`
	SpanSumMS   float64 `json:"span_sum_ms"`
	WallMS      float64 `json:"wall_ms"`
	SpanCover   float64 `json:"span_cover"`
	Snapshots   int     `json:"snapshots"`
	Pairs       int     `json:"pairs"`
	Explored    int     `json:"explored"`
}

// runE22 measures what the observability layer costs when it is actually
// watching: the same on-the-fly network check runs bare and fully
// observed (phase tracing plus a 5ms progress sampler), interleaved,
// overhead taken as the median of per-rep paired ratios so host noise
// cancels. The entry is the relay-13 full sweep: relay cells have no
// root tau, so their ≈ᶜ-quotients keep every state, and the game interns
// all 2^13 pairs — a hot loop long enough for a per-pair regression to
// surface.
//
// Full runs gate three claims:
//
//   - overhead: observed/baseline <= 1.05 (the CI gate; the tracer costs
//     two timestamps per phase and the sampler reads amortized counters);
//   - coverage: the trace's flat spans sum to within 10% of the checked
//     call's wall time, the property that makes a timeline trustworthy;
//   - liveness: the progress hook delivered at least one snapshot and
//     the last one is final with the game's exact totals.
func runE22(w io.Writer, seed int64, quick bool) error {
	// Noise dominates a ~25ms workload on a loaded host, so the design
	// is built to filter it: many reps, baseline/observed order
	// alternating per rep, and the overhead taken as the MEDIAN of the
	// per-rep paired ratios — each rep's two runs are adjacent in time,
	// so the ratio cancels slow host drift, and the median discards the
	// reps where another tenant preempted one side.
	relayN, reps := 13, 31
	if quick {
		relayN, reps = 4, 3
	}
	entry := fmt.Sprintf("relay-%d (full sweep)", relayN)
	net := gen.RelayNetwork(relayN, 3)
	spec := gen.CounterSpec(relayN)

	// The experiment keeps the default GOMAXPROCS (= NumCPU): measuring a
	// 5% ceiling needs low variance, and forcing more threads than cores
	// makes OS time-slicing steal a random double-digit percentage of any
	// individual run.
	ctx := context.Background()

	// ONE engine serves both sides, warmed once outside the timings, so
	// baseline and observed replay the identical cached-quotient +
	// exploration path. (Two per-side engines looked cleaner but their
	// independently-allocated caches land in different heap layouts,
	// which shows up as a persistent few-percent bias the paired-ratio
	// estimator then faithfully misreports as observability overhead.)
	eng := engine.New()
	if eq, _, err := eng.CheckNetworkOTFInfo(ctx, net, spec, engine.Weak, 0); err != nil || !eq {
		return fmt.Errorf("e22: warmup eq=%v err=%v", eq, err)
	}

	var (
		baseMin, obsMin time.Duration
		lastTrace       *obs.Trace
		lastWall        time.Duration
		snapMu          sync.Mutex
		snaps           []obs.OTFSnapshot
		pairs, explored int
	)
	runBase := func(rep int) time.Duration {
		dBase := timed(func() {
			if eq, _, err := eng.CheckNetworkOTFInfo(ctx, net, spec, engine.Weak, 0); err != nil || !eq {
				panic(fmt.Sprintf("e22 baseline eq=%v err=%v", eq, err))
			}
		})
		if rep == 0 || dBase < baseMin {
			baseMin = dBase
		}
		return dBase
	}
	runObs := func(rep int) time.Duration {
		tr := obs.NewTrace("")
		octx := obs.WithTrace(ctx, tr)
		snapMu.Lock()
		snaps = snaps[:0]
		snapMu.Unlock()
		octx = obs.WithOTFProgress(octx, func(s obs.OTFSnapshot) {
			snapMu.Lock()
			snaps = append(snaps, s)
			snapMu.Unlock()
		}, 5*time.Millisecond)
		dObs := timed(func() {
			eq, info, err := eng.CheckNetworkOTFInfo(octx, net, spec, engine.Weak, 0)
			if err != nil || !eq {
				panic(fmt.Sprintf("e22 observed eq=%v err=%v", eq, err))
			}
			pairs, explored = info.Pairs, info.Explored
		})
		if rep == 0 || dObs < obsMin {
			obsMin = dObs
			lastTrace, lastWall = tr, dObs
		}
		return dObs
	}
	ratios := make([]float64, 0, reps)
	for rep := 0; rep < reps; rep++ {
		// Alternate which side goes first so slow drift on the host
		// (another tenant, frequency scaling) cannot bias one side.
		var dBase, dObs time.Duration
		if rep%2 == 0 {
			dBase = runBase(rep)
			dObs = runObs(rep)
		} else {
			dObs = runObs(rep)
			dBase = runBase(rep)
		}
		ratios = append(ratios, float64(dObs)/float64(dBase))
	}

	sort.Float64s(ratios)
	overhead := ratios[len(ratios)/2]
	var spanSum time.Duration
	for _, sp := range lastTrace.Spans() {
		spanSum += sp.Duration
	}
	cover := float64(spanSum) / float64(lastWall)
	snapMu.Lock()
	nSnaps := len(snaps)
	finalOK := nSnaps > 0 && snaps[nSnaps-1].Final
	snapMu.Unlock()

	fmt.Fprintf(w, "%-44s %12s %12s %9s %7s %9s\n",
		"entry", "baseline", "observed", "overhead", "cover", "snapshots")
	fmt.Fprintf(w, "%-44s %12s %12s %8.3fx %6.1f%% %9d\n",
		entry, baseMin.Round(time.Microsecond), obsMin.Round(time.Microsecond),
		overhead, 100*cover, nSnaps)
	fmt.Fprintln(w, "expect: <= 1.05x (median of per-rep observed/baseline ratios; the")
	fmt.Fprintln(w, "        baseline/observed columns are best-of-reps) — tracing is two")
	fmt.Fprintln(w, "        timestamps per phase, the progress sampler reads batch-amortized")
	fmt.Fprintln(w, "        counters, and flat spans cover ~100% of the call's wall time")

	if !quick {
		if overhead > 1.05 {
			return fmt.Errorf("e22: observability overhead %.3fx, want <= 1.05x", overhead)
		}
		if cover < 0.9 || cover > 1.1 {
			return fmt.Errorf("e22: span coverage %.1f%% of wall, want within 10%%", 100*cover)
		}
		if !finalOK {
			return fmt.Errorf("e22: progress sampler delivered %d snapshots, final missing", nSnaps)
		}
	}

	if e22JSONPath != "" {
		report := e22Report{
			Experiment:  "E22",
			Description: "observability overhead: traced + progress-sampled otf check vs bare, relay full sweep",
			Quick:       quick,
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			Entry:       entry,
			Reps:        reps,
			BaselineNS:  baseMin.Nanoseconds(),
			ObservedNS:  obsMin.Nanoseconds(),
			Overhead:    overhead,
			SpanSumMS:   float64(spanSum) / float64(time.Millisecond),
			WallMS:      float64(lastWall) / float64(time.Millisecond),
			SpanCover:   cover,
			Snapshots:   nSnaps,
			Pairs:       pairs,
			Explored:    explored,
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fmt.Errorf("e22: %w", err)
		}
		if err := os.WriteFile(e22JSONPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("e22: %w", err)
		}
		fmt.Fprintf(w, "trajectory written to %s\n", e22JSONPath)
	}
	return nil
}
