package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"ccs"
	"ccs/internal/gen"
)

// e20JSONPath, when non-empty, is where runE20 writes its BENCH_E20.json
// trajectory. main wires it to the -e20json flag; the test harness leaves
// it empty so test runs produce no files.
var e20JSONPath string

type e20Row struct {
	Entry    string  `json:"entry"`
	Requests int     `json:"requests"`
	ColdNS   int64   `json:"cold_ns"`
	WarmNS   int64   `json:"warm_ns"`
	Speedup  float64 `json:"speedup"`
}

type e20Report struct {
	Experiment   string         `json:"experiment"`
	Description  string         `json:"description"`
	Seed         int64          `json:"seed"`
	Quick        bool           `json:"quick"`
	GeneratedAt  string         `json:"generated_at"`
	ColdStore    ccs.StoreStats `json:"cold_store"`
	WarmStore    ccs.StoreStats `json:"warm_store"`
	Rows         []e20Row       `json:"rows"`
	TotalSpeedup float64        `json:"total_speedup"`
}

// e20RelayRequest builds the n-stage relay-vs-counter check as a wire
// request: inline component sources, relabelings, hidden internal
// channels, and the mtc route — the exact JSON a `ccs serve` client would
// post. The mtc route is deliberate: it materializes the composed product
// and solves its weak partition, which is precisely the work a warm store
// answers from disk.
func e20RelayRequest(n, churn int, lossy bool, label string) ccs.CheckRequest {
	cellSrc := ccs.FormatProcess(gen.BufferCell(churn))
	lossySrc := ccs.FormatProcess(gen.LossyCell(churn))
	comps := make([]ccs.NetworkComponentRef, n)
	for i := range comps {
		src := cellSrc
		if lossy && i == n/2 {
			src = lossySrc
		}
		comps[i] = ccs.NetworkComponentRef{Process: src, Relabel: map[string]string{
			"in":  fmt.Sprintf("c%d", i),
			"out": fmt.Sprintf("c%d", i+1),
		}}
	}
	nr := ccs.NetworkRequest{
		Name:       label,
		Components: comps,
		Spec:       ccs.FormatProcess(gen.CounterSpec(n)),
	}
	for i := 1; i < n; i++ {
		nr.Hide = append(nr.Hide, fmt.Sprintf("c%d", i))
	}
	return ccs.NewNetworkCheck("weak", nr, ccs.WithRoute(ccs.RouteMTC), ccs.WithLabel(label))
}

// runE20 measures the persistent artifact store end to end: one query
// stream — random weak/strong pairs plus relay-network checks, all in
// the shared request schema — is answered twice against the same store
// directory by two fresh Checkers, simulating a service restart. The cold
// run derives and spills every stored artifact (the quotients); the warm
// run must answer entirely from disk (hits only: no misses, no writes)
// with identical verdicts, skipping the quotient solves and rebuilding
// only the in-memory signature records of the quotients. On full runs the
// warm side must clear 2x overall — the CI gate.
// The margin is structural (decoding a stored quotient is linear in its
// size; deriving one saturates a closure and iterates a partition), so
// the gate is robust to runner noise.
func runE20(w io.Writer, seed int64, quick bool) error {
	rng := rand.New(rand.NewSource(seed))
	states, numPairs, relayN, churn := 700, 5, 9, 3
	if quick {
		states, numPairs, relayN, churn = 120, 3, 4, 2
	}

	// Tau-dense processes, the store's sweet spot: the weak quotient
	// collapses hard (700 states to under 100), so the cold run pays a
	// closure and two partition solves per process while the warm run
	// decodes a small stored quotient and compares two signature records.
	procs := make([]string, numPairs+1)
	for i := range procs {
		procs[i] = ccs.FormatProcess(gen.Random(rng, states, 3*states, 4, 0.7))
	}
	var pairReqs []ccs.CheckRequest
	for i := 0; i < numPairs; i++ {
		pairReqs = append(pairReqs,
			ccs.NewCheck("weak", procs[i], procs[i+1], ccs.WithLabel(fmt.Sprintf("weak-%d", i))),
			ccs.NewCheck("strong", procs[i], procs[i+1], ccs.WithLabel(fmt.Sprintf("strong-%d", i))))
	}
	segments := []struct {
		name string
		reqs []ccs.CheckRequest
	}{
		{"random weak+strong pairs", pairReqs},
		{"relay networks (mtc route)", []ccs.CheckRequest{
			e20RelayRequest(relayN, churn, false, "relay-ok"),
			e20RelayRequest(relayN, churn, true, "relay-lossy"),
		}},
	}

	dir, err := os.MkdirTemp("", "ccsbench-e20-")
	if err != nil {
		return fmt.Errorf("e20: %w", err)
	}
	defer os.RemoveAll(dir)

	ctx := context.Background()
	runStream := func(c *ccs.Checker) ([][]ccs.Report, []time.Duration) {
		reps := make([][]ccs.Report, len(segments))
		times := make([]time.Duration, len(segments))
		for i, seg := range segments {
			i, seg := i, seg
			times[i] = timed(func() {
				reps[i] = c.DoAll(ctx, seg.reqs, 1, nil)
			})
		}
		return reps, times
	}

	cold, err := ccs.NewStoreChecker(dir, 0)
	if err != nil {
		return fmt.Errorf("e20: %w", err)
	}
	coldReps, coldTimes := runStream(cold)
	coldStore := cold.Stats().Store

	// A fresh Checker on the same directory is a restarted service: the
	// in-memory tier is empty, so every artifact must come off disk.
	warm, err := ccs.NewStoreChecker(dir, 0)
	if err != nil {
		return fmt.Errorf("e20: %w", err)
	}
	warmReps, warmTimes := runStream(warm)
	warmStore := warm.Stats().Store

	// Correctness half: identical verdicts, no errors, and the warm run
	// answered purely from the store.
	for i, seg := range segments {
		for j := range seg.reqs {
			cr, wr := coldReps[i][j], warmReps[i][j]
			if cr.Error != nil || wr.Error != nil {
				return fmt.Errorf("e20: %s failed: cold %+v, warm %+v", cr.Label, cr.Error, wr.Error)
			}
			if cr.Equivalent != wr.Equivalent {
				return fmt.Errorf("e20: verdict flipped across restart on %s: cold %v, warm %v", cr.Label, cr.Equivalent, wr.Equivalent)
			}
			switch cr.Label {
			case "relay-ok":
				if !cr.Equivalent {
					return fmt.Errorf("e20: relay chain not equivalent to its counter spec")
				}
			case "relay-lossy":
				if cr.Equivalent {
					return fmt.Errorf("e20: lossy relay equivalent to the counter spec")
				}
			}
		}
	}
	if coldStore == nil || coldStore.Writes == 0 {
		return fmt.Errorf("e20: cold run spilled nothing: %+v", coldStore)
	}
	if warmStore == nil || warmStore.Hits == 0 || warmStore.Misses != 0 || warmStore.Writes != 0 {
		return fmt.Errorf("e20: warm run not served from the store: %+v", warmStore)
	}

	report := e20Report{
		Experiment:  "E20",
		Description: "persistent artifact store: one request stream answered cold (fresh directory) and warm (fresh Checker, same directory), simulating a ccs serve restart",
		Seed:        seed,
		Quick:       quick,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		ColdStore:   *coldStore,
		WarmStore:   *warmStore,
	}
	fmt.Fprintf(w, "%-32s %8s %14s %14s %8s\n", "entry", "requests", "cold", "warm", "speedup")
	var coldTotal, warmTotal time.Duration
	for i, seg := range segments {
		coldTotal += coldTimes[i]
		warmTotal += warmTimes[i]
		speedup := float64(coldTimes[i]) / float64(warmTimes[i])
		fmt.Fprintf(w, "%-32s %8d %14s %14s %7.1fx\n",
			seg.name, len(seg.reqs),
			coldTimes[i].Round(time.Microsecond), warmTimes[i].Round(time.Microsecond), speedup)
		report.Rows = append(report.Rows, e20Row{
			Entry:    seg.name,
			Requests: len(seg.reqs),
			ColdNS:   coldTimes[i].Nanoseconds(),
			WarmNS:   warmTimes[i].Nanoseconds(),
			Speedup:  speedup,
		})
	}
	total := float64(coldTotal) / float64(warmTotal)
	report.TotalSpeedup = total
	fmt.Fprintf(w, "%-32s %8s %14s %14s %7.1fx\n", "total", "",
		coldTotal.Round(time.Microsecond), warmTotal.Round(time.Microsecond), total)
	fmt.Fprintf(w, "store after warm run: %d entries, %d hits / %d misses, %d writes\n",
		warmStore.Entries, warmStore.Hits, warmStore.Misses, warmStore.Writes)

	// Like E16..E19, the perf floor is asserted on full runs only; quick
	// mode is the CI correctness smoke where small sizes are noise.
	if !quick && total < 2 {
		return fmt.Errorf("e20: warm/cold speedup %.2fx, want >= 2x overall", total)
	}
	fmt.Fprintln(w, "expect: >= 2x overall — a warm store decodes stored quotients")
	fmt.Fprintln(w, "        instead of re-deriving them, so a restarted server skips the")
	fmt.Fprintln(w, "        saturations and partition solves the cold run paid for")
	if e20JSONPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fmt.Errorf("e20: %w", err)
		}
		if err := os.WriteFile(e20JSONPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("e20: %w", err)
		}
		fmt.Fprintf(w, "trajectory written to %s\n", e20JSONPath)
	}
	return nil
}
