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
	"ccs/internal/obs"
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
	Experiment  string         `json:"experiment"`
	Description string         `json:"description"`
	Seed        int64          `json:"seed"`
	Quick       bool           `json:"quick"`
	GeneratedAt string         `json:"generated_at"`
	ColdStore   ccs.StoreStats `json:"cold_store"`
	WarmStore   ccs.StoreStats `json:"warm_store"`
	// Quotients and ≈-partitions derived fresh on each run; the gate
	// wants none on the warm run.
	ColdDerived  e20Derived `json:"cold_derived"`
	WarmDerived  e20Derived `json:"warm_derived"`
	Rows         []e20Row   `json:"rows"`
	TotalSpeedup float64    `json:"total_speedup"`
}

type e20Derived struct {
	Quotients  int64 `json:"quotients"`
	Partitions int64 `json:"weak_partitions"`
}

// e20Derivations reads the process-wide counts of quotients derived
// fresh, of the kinds the store persists (every cache tier missed), and
// of ≈-partitions derived by the core kernel on any path.
func e20Derivations() e20Derived {
	var d e20Derived
	quotients := obs.Default().CounterVec("ccs_engine_artifacts_derived_total", "", "kind")
	for _, kind := range []string{"strong", "weak", "cong"} {
		d.Quotients += quotients.With(kind).Value()
	}
	partitions := obs.Default().CounterVec("ccs_core_weak_partitions_total", "", "by")
	for _, by := range []string{"rounds", "strong", "saturation"} {
		d.Partitions += partitions.With(by).Value()
	}
	return d
}

// since returns the derivations counted after from was read.
func (d e20Derived) since(from e20Derived) e20Derived {
	return e20Derived{d.Quotients - from.Quotients, d.Partitions - from.Partitions}
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
// run must answer entirely from disk with identical verdicts, rebuilding
// only the in-memory signature records of the quotients. The gate is
// counted rather than timed: the warm run derives no quotient and no
// ≈-partition, misses nothing and writes nothing, and its store hits are
// exactly the quotients the cold run derived and wrote. The cold and
// warm times and their ratio are reported for the record; since cold
// ≈-derivations stopped saturating, that ratio reads about 2x and says
// more about how fast a quotient is derived than about the store.
func runE20(w io.Writer, seed int64, quick bool) error {
	rng := rand.New(rand.NewSource(seed))
	states, numPairs, relayN, churn := 700, 5, 9, 3
	if quick {
		states, numPairs, relayN, churn = 120, 3, 4, 2
	}

	// Tau-dense processes, the store's sweet spot: the weak quotient
	// collapses hard (700 states to under 100), so the cold run derives
	// the ≈-partition of each whole process while the warm run decodes a
	// small stored quotient and compares two signature records.
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
	before := e20Derivations()
	coldReps, coldTimes := runStream(cold)
	coldStore := cold.Stats().Store
	coldDerived := e20Derivations().since(before)

	// A fresh Checker on the same directory is a restarted service: the
	// in-memory tier is empty, so every artifact must come off disk.
	warm, err := ccs.NewStoreChecker(dir, 0)
	if err != nil {
		return fmt.Errorf("e20: %w", err)
	}
	before = e20Derivations()
	warmReps, warmTimes := runStream(warm)
	warmStore := warm.Stats().Store
	warmDerived := e20Derivations().since(before)

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
	// The gate: every quotient the cold run derived was spilled, and the
	// warm run read each of them back instead of deriving anything.
	if coldStore == nil || coldDerived.Quotients == 0 || coldStore.Writes != coldDerived.Quotients {
		return fmt.Errorf("e20: cold run derived %d quotients and spilled %+v, want every one written", coldDerived.Quotients, coldStore)
	}
	if warmStore == nil || warmStore.Hits != coldDerived.Quotients || warmStore.Misses != 0 || warmStore.Writes != 0 {
		return fmt.Errorf("e20: warm run not served from the store: %+v, want %d hits only", warmStore, coldDerived.Quotients)
	}
	if warmDerived != (e20Derived{}) {
		return fmt.Errorf("e20: warm run derived %d quotients and %d ≈-partitions, want none", warmDerived.Quotients, warmDerived.Partitions)
	}

	report := e20Report{
		Experiment:  "E20",
		Description: "persistent artifact store: one request stream answered cold (fresh directory) and warm (fresh Checker, same directory), simulating a ccs serve restart",
		Seed:        seed,
		Quick:       quick,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		ColdStore:   *coldStore,
		WarmStore:   *warmStore,
		ColdDerived: coldDerived,
		WarmDerived: warmDerived,
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
	fmt.Fprintf(w, "derived: cold %d quotients, %d ≈-partitions; warm %d quotients, %d ≈-partitions\n",
		coldDerived.Quotients, coldDerived.Partitions, warmDerived.Quotients, warmDerived.Partitions)
	fmt.Fprintln(w, "expect: a warm run that derives nothing — every quotient the cold run")
	fmt.Fprintln(w, "        derived and wrote comes back as one store hit, so a restarted")
	fmt.Fprintln(w, "        server skips the partition derivations the cold run paid for")
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
