package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"ccs/internal/compose"
	"ccs/internal/engine"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// e19JSONPath, when non-empty, is where runE19 writes its BENCH_E19.json
// trajectory. main wires it to the -e19json flag; the test harness leaves
// it empty so test runs produce no files.
var e19JSONPath string

type e19Row struct {
	Entry       string  `json:"entry"`
	Expect      bool    `json:"expect_equivalent"`
	MTCStates   int     `json:"mtc_product_states"`
	MTCNS       int64   `json:"minimize_then_compose_ns"`
	OTFNS       int64   `json:"on_the_fly_ns"`
	OTFPairs    int     `json:"otf_pairs"`
	OTFExplored int     `json:"otf_explored"`
	SpecSubsets int     `json:"otf_spec_subsets"`
	Speedup     float64 `json:"speedup"`
}

type e19Report struct {
	Experiment  string   `json:"experiment"`
	Description string   `json:"description"`
	Seed        int64    `json:"seed"`
	Quick       bool     `json:"quick"`
	GeneratedAt string   `json:"generated_at"`
	Rows        []e19Row `json:"rows"`
}

// runE19 is E18 with the spec side made realistic: every entry checks
// against a nondeterministic, tau-bearing specification
// (gen.NondetCounterSpec, gen.NondetTokenRingSpec) that PR 4's direct
// game rejected outright, forcing the fallback and forfeiting the lazy
// early exit. The determinized subset game lifts the restriction, so the
// measurement pits engine.CheckNetworkOTF — which must take the
// otf-determinized route on every entry, never the fallback — against
// minimize-then-compose:
//
//   - early-mismatch: the lossy relay and the buggy token ring, where
//     the game stops at the first distinguishing state while MTC still
//     pays for the whole minimized product and its partition;
//   - deep-spec: the correct relay and ring, where the game sweeps a
//     comparable pair space but skips product materialization and
//     refinement, now paying the subset interning on top.
//
// Both routes must agree on every verdict, and on full runs the
// early-mismatch lossy-relay entry must clear 2x — the CI gate. The
// margin is structural (a constant-depth counterexample vs sweeping the
// whole minimized product), so the gate is robust to runner noise.
func runE19(w io.Writer, seed int64, quick bool) error {
	relayN, lossyN, ringN := 10, 12, 10
	if quick {
		relayN, lossyN, ringN = 4, 5, 4
	}
	cases := []struct {
		name   string
		net    *compose.Network
		spec   *fsp.FSP
		expect bool
		gated  bool
	}{
		{fmt.Sprintf("relay-%d (nondet spec, deep)", relayN), gen.RelayNetwork(relayN, 3), gen.NondetCounterSpec(relayN), true, false},
		{fmt.Sprintf("lossy-relay-%d (nondet spec, early mismatch)", lossyN), gen.LossyRelayNetwork(lossyN, 2), gen.NondetCounterSpec(lossyN), false, true},
		{fmt.Sprintf("token-ring-%d (nondet spec, deep)", ringN), gen.TokenRing(ringN), gen.NondetTokenRingSpec(), true, false},
		{fmt.Sprintf("buggy-token-ring-%d (nondet spec, early mismatch)", ringN), gen.BuggyTokenRing(ringN), gen.NondetTokenRingSpec(), false, false},
	}

	report := e19Report{
		Experiment:  "E19",
		Description: "network equivalence with nondeterministic specs: minimize-then-compose vs the determinized on-the-fly game (internal/otf subset construction + engine.CheckNetworkOTF)",
		Seed:        seed,
		Quick:       quick,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	ctx := context.Background()
	fmt.Fprintf(w, "%-44s %10s %14s %14s %8s %8s %8s %8s\n",
		"entry", "mtc-states", "mtc", "on-the-fly", "pairs", "subsets", "speedup", "verdict")
	gate := 0.0
	for _, tc := range cases {
		// MTC route: fresh engine per measurement, so the timing includes
		// the per-component quotients, the product of the minima, and the
		// final check on the product's quotient.
		var mtcVerdict bool
		var mtcStates int
		mtcT := timed(func() {
			c := engine.New()
			min, err := c.ComposeNetwork(ctx, tc.net, engine.Weak)
			if err != nil {
				panic(err)
			}
			mtcStates = min.NumStates()
			mtcVerdict, err = c.Check(ctx, engine.Query{P: min, Q: tc.spec, Rel: engine.Weak})
			if err != nil {
				panic(err)
			}
		})

		// OTF route: also a fresh engine, so both sides pay the same
		// quotient costs and the difference is product materialization vs
		// the lazy subset game.
		var otfVerdict bool
		var info engine.OTFInfo
		otfT := timed(func() {
			var err error
			otfVerdict, info, err = engine.New().CheckNetworkOTFInfo(ctx, tc.net, tc.spec, engine.Weak, 0)
			if err != nil {
				panic(err)
			}
		})

		if info.Route != engine.RouteOTFDeterminized {
			return fmt.Errorf("e19: %s took route %q, want %q (fallback: %s)", tc.name, info.Route, engine.RouteOTFDeterminized, info.Fallback)
		}
		if mtcVerdict != otfVerdict {
			return fmt.Errorf("e19: routes disagree on %s: mtc=%v otf=%v", tc.name, mtcVerdict, otfVerdict)
		}
		if mtcVerdict != tc.expect {
			return fmt.Errorf("e19: %s verdict %v, want %v", tc.name, mtcVerdict, tc.expect)
		}

		speedup := float64(mtcT) / float64(otfT)
		if tc.gated {
			gate = speedup
		}
		fmt.Fprintf(w, "%-44s %10d %14s %14s %8d %8d %7.1fx %8v\n",
			tc.name, mtcStates,
			mtcT.Round(time.Microsecond), otfT.Round(time.Microsecond),
			info.Pairs, info.SpecSubsets, speedup, otfVerdict)
		report.Rows = append(report.Rows, e19Row{
			Entry:       tc.name,
			Expect:      tc.expect,
			MTCStates:   mtcStates,
			MTCNS:       mtcT.Nanoseconds(),
			OTFNS:       otfT.Nanoseconds(),
			OTFPairs:    info.Pairs,
			OTFExplored: info.Explored,
			SpecSubsets: info.SpecSubsets,
			Speedup:     speedup,
		})
	}
	// Like E16/E17/E18, the perf floor is asserted on full runs only;
	// quick mode is the CI correctness smoke where small sizes are noise.
	if !quick && gate < 2 {
		return fmt.Errorf("e19: early-mismatch speedup %.2fx, want >= 2x on the lossy-relay entry", gate)
	}
	fmt.Fprintln(w, "expect: >= 2x on the lossy-relay early-mismatch entry — determinizing the")
	fmt.Fprintln(w, "        spec lazily keeps the first-mismatch exit that the old fallback to")
	fmt.Fprintln(w, "        minimize-then-compose forfeited on nondeterministic specs")
	if e19JSONPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fmt.Errorf("e19: %w", err)
		}
		if err := os.WriteFile(e19JSONPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("e19: %w", err)
		}
		fmt.Fprintf(w, "trajectory written to %s\n", e19JSONPath)
	}
	return nil
}
