package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"ccs/internal/core"
	"ccs/internal/engine"
	"ccs/internal/gen"
)

// e17JSONPath, when non-empty, is where runE17 writes its BENCH_E17.json
// trajectory. main wires it to the -e17json flag; the test harness leaves
// it empty so test runs produce no files.
var e17JSONPath string

type e17Row struct {
	Stages     int     `json:"stages"`
	Churn      int     `json:"churn"`
	FlatStates int     `json:"flat_states"`
	FlatTrans  int     `json:"flat_transitions"`
	MinStates  int     `json:"min_states"`
	FlatNS     int64   `json:"flat_ns"`
	MinNS      int64   `json:"minimize_then_compose_ns"`
	Speedup    float64 `json:"speedup"`
	Verdict    bool    `json:"verdict"`
}

type e17Report struct {
	Experiment  string   `json:"experiment"`
	Description string   `json:"description"`
	Seed        int64    `json:"seed"`
	Quick       bool     `json:"quick"`
	GeneratedAt string   `json:"generated_at"`
	Rows        []e17Row `json:"rows"`
}

// runE17 measures the compositional pipeline on the relay-pipeline
// network gallery: deciding "pipeline ≈ n-place buffer" by composing the
// flat product and checking it (compose-then-minimize, what every tool
// does without compositionality) against the engine's
// minimize-then-compose route (quotient each cell by ≈ᶜ through the
// artifact cache, compose the minima, check the small product). Both
// routes must agree — here and on the lossy negative control — and the
// compositional route must win by ≥ 2x on the largest network, where the
// flat product is exponential in the stage count while the minimized one
// collapses to 2^n.
func runE17(w io.Writer, seed int64, quick bool) error {
	const churn = 3
	sizes := []int{2, 3, 4, 5}
	if quick {
		sizes = []int{2, 3}
	}
	report := e17Report{
		Experiment:  "E17",
		Description: "network equivalence: flat composition vs minimize-then-compose (internal/compose + engine)",
		Seed:        seed,
		Quick:       quick,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	ctx := context.Background()
	fmt.Fprintf(w, "%8s %12s %12s %14s %14s %8s %8s\n",
		"stages", "flat-states", "min-states", "flat", "min-compose", "speedup", "verdict")
	for _, n := range sizes {
		net := gen.RelayNetwork(n, churn)
		spec := gen.CounterSpec(n)

		// Flat route: materialize the full product, then the one-shot ≈
		// check (core.WeakEquivalent) against the spec.
		var flatVerdict bool
		var flatStates, flatTrans int
		flatT := timed(func() {
			flat, err := net.FSP()
			if err != nil {
				panic(err)
			}
			flatStates, flatTrans = flat.NumStates(), flat.NumTransitions()
			flatVerdict, err = core.WeakEquivalent(flat, spec)
			if err != nil {
				panic(err)
			}
		})

		// Compositional route: a fresh engine per measurement so the
		// timing includes every per-component quotient, the product of
		// the minima, and the final check.
		var minVerdict bool
		var minStates int
		minT := timed(func() {
			c := engine.New()
			min, err := c.ComposeNetwork(ctx, net, engine.Weak)
			if err != nil {
				panic(err)
			}
			minStates = min.NumStates()
			minVerdict, err = c.Check(ctx, engine.Query{P: min, Q: spec, Rel: engine.Weak})
			if err != nil {
				panic(err)
			}
		})

		if flatVerdict != minVerdict {
			return fmt.Errorf("e17: routes disagree at n=%d: flat=%v mtc=%v", n, flatVerdict, minVerdict)
		}
		if !flatVerdict {
			return fmt.Errorf("e17: buffer law failed at n=%d", n)
		}
		// Negative control: the lossy pipeline must be rejected by both
		// routes (unmeasured; agreement is what matters).
		lossy := gen.LossyRelayNetwork(n, churn)
		lossyFlat, err := lossy.FSP()
		if err != nil {
			return fmt.Errorf("e17: %w", err)
		}
		lf, err := core.WeakEquivalent(lossyFlat, spec)
		if err != nil {
			return fmt.Errorf("e17: %w", err)
		}
		lm, err := engine.New().CheckNetwork(ctx, lossy, spec, engine.Weak, 0)
		if err != nil {
			return fmt.Errorf("e17: %w", err)
		}
		if lf || lm {
			return fmt.Errorf("e17: lossy pipeline accepted at n=%d: flat=%v mtc=%v", n, lf, lm)
		}

		speedup := float64(flatT) / float64(minT)
		fmt.Fprintf(w, "%8d %12d %12d %14s %14s %7.1fx %8v\n",
			n, flatStates, minStates,
			flatT.Round(time.Microsecond), minT.Round(time.Microsecond),
			speedup, flatVerdict)
		report.Rows = append(report.Rows, e17Row{
			Stages:     n,
			Churn:      churn,
			FlatStates: flatStates,
			FlatTrans:  flatTrans,
			MinStates:  minStates,
			FlatNS:     flatT.Nanoseconds(),
			MinNS:      minT.Nanoseconds(),
			Speedup:    speedup,
			Verdict:    flatVerdict,
		})
	}
	last := report.Rows[len(report.Rows)-1]
	// Like E16, the perf floor is asserted on full runs only; quick mode
	// is the CI correctness smoke where small sizes are all noise.
	if !quick && last.Speedup < 2 {
		return fmt.Errorf("e17: minimize-then-compose speedup %.2fx on the largest network (n=%d), want >= 2x",
			last.Speedup, last.Stages)
	}
	fmt.Fprintln(w, "expect: speedup >= 2x on the largest network — the flat product is")
	fmt.Fprintln(w, "        exponential in the stages, the composed minima stay tiny")
	if e17JSONPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fmt.Errorf("e17: %w", err)
		}
		if err := os.WriteFile(e17JSONPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("e17: %w", err)
		}
		fmt.Fprintf(w, "trajectory written to %s\n", e17JSONPath)
	}
	return nil
}
