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

// e18JSONPath, when non-empty, is where runE18 writes its BENCH_E18.json
// trajectory. main wires it to the -e18json flag; the test harness leaves
// it empty so test runs produce no files.
var e18JSONPath string

type e18Row struct {
	Entry       string  `json:"entry"`
	Expect      bool    `json:"expect_equivalent"`
	MTCStates   int     `json:"mtc_product_states"`
	MTCNS       int64   `json:"minimize_then_compose_ns"`
	OTFNS       int64   `json:"on_the_fly_ns"`
	OTFPairs    int     `json:"otf_pairs"`
	OTFExplored int     `json:"otf_explored"`
	Speedup     float64 `json:"speedup"`
}

type e18Report struct {
	Experiment  string   `json:"experiment"`
	Description string   `json:"description"`
	Seed        int64    `json:"seed"`
	Quick       bool     `json:"quick"`
	GeneratedAt string   `json:"generated_at"`
	Rows        []e18Row `json:"rows"`
}

// runE18 measures the on-the-fly route (engine.CheckNetworkOTF: lazy
// product-vs-spec game over cached component quotients, no product
// materialization) against the minimize-then-compose route of E17 on two
// kinds of gallery entries:
//
//   - early-mismatch: the lossy relay and the buggy token ring, where the
//     game stops at the first distinguishing state while MTC still pays
//     for the whole minimized product plus its ≈-partition;
//   - deep-spec: the correct relay pipeline and token ring, where both
//     routes sweep comparable state counts but the game skips the
//     product's materialization and refinement entirely.
//
// Both routes must agree on every verdict, every OTF run must actually be
// on the fly (no fallback), and on full runs the best speedup must clear
// 2x — the CI gate. The margin on the early-mismatch entries is
// structural (a constant-depth counterexample vs building and
// partitioning the whole minimized product), so the gate is robust to
// runner noise.
func runE18(w io.Writer, seed int64, quick bool) error {
	relayN, lossyN, ringN := 10, 12, 10
	if quick {
		relayN, lossyN, ringN = 4, 5, 4
	}
	cases := []struct {
		name   string
		net    *compose.Network
		spec   *fsp.FSP
		expect bool
	}{
		{fmt.Sprintf("relay-%d (deep spec)", relayN), gen.RelayNetwork(relayN, 3), gen.CounterSpec(relayN), true},
		{fmt.Sprintf("lossy-relay-%d (early mismatch)", lossyN), gen.LossyRelayNetwork(lossyN, 2), gen.CounterSpec(lossyN), false},
		{fmt.Sprintf("token-ring-%d (deep spec)", ringN), gen.TokenRing(ringN), gen.TokenRingSpec(), true},
		{fmt.Sprintf("buggy-token-ring-%d (early mismatch)", ringN), gen.BuggyTokenRing(ringN), gen.TokenRingSpec(), false},
	}

	report := e18Report{
		Experiment:  "E18",
		Description: "network equivalence: minimize-then-compose vs on-the-fly game (internal/otf + engine.CheckNetworkOTF)",
		Seed:        seed,
		Quick:       quick,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	ctx := context.Background()
	fmt.Fprintf(w, "%-34s %10s %14s %14s %8s %8s %8s\n",
		"entry", "mtc-states", "mtc", "on-the-fly", "pairs", "speedup", "verdict")
	best := 0.0
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
		// the lazy game.
		var otfVerdict bool
		var info engine.OTFInfo
		otfT := timed(func() {
			var err error
			otfVerdict, info, err = engine.New().CheckNetworkOTFInfo(ctx, tc.net, tc.spec, engine.Weak, 0)
			if err != nil {
				panic(err)
			}
		})

		if !info.OnTheFly {
			return fmt.Errorf("e18: %s fell back to minimize-then-compose: %s", tc.name, info.Fallback)
		}
		if mtcVerdict != otfVerdict {
			return fmt.Errorf("e18: routes disagree on %s: mtc=%v otf=%v", tc.name, mtcVerdict, otfVerdict)
		}
		if mtcVerdict != tc.expect {
			return fmt.Errorf("e18: %s verdict %v, want %v", tc.name, mtcVerdict, tc.expect)
		}

		speedup := float64(mtcT) / float64(otfT)
		if speedup > best {
			best = speedup
		}
		fmt.Fprintf(w, "%-34s %10d %14s %14s %8d %7.1fx %8v\n",
			tc.name, mtcStates,
			mtcT.Round(time.Microsecond), otfT.Round(time.Microsecond),
			info.Pairs, speedup, otfVerdict)
		report.Rows = append(report.Rows, e18Row{
			Entry:       tc.name,
			Expect:      tc.expect,
			MTCStates:   mtcStates,
			MTCNS:       mtcT.Nanoseconds(),
			OTFNS:       otfT.Nanoseconds(),
			OTFPairs:    info.Pairs,
			OTFExplored: info.Explored,
			Speedup:     speedup,
		})
	}
	// Like E16/E17, the perf floor is asserted on full runs only; quick
	// mode is the CI correctness smoke where small sizes are all noise.
	if !quick && best < 2 {
		return fmt.Errorf("e18: best on-the-fly speedup %.2fx, want >= 2x on at least one entry", best)
	}
	fmt.Fprintln(w, "expect: >= 2x on at least one entry — early mismatches cost a constant-")
	fmt.Fprintln(w, "        depth trace instead of the whole product, and even full sweeps")
	fmt.Fprintln(w, "        skip the product's materialization and refinement")
	if e18JSONPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fmt.Errorf("e18: %w", err)
		}
		if err := os.WriteFile(e18JSONPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("e18: %w", err)
		}
		fmt.Fprintf(w, "trajectory written to %s\n", e18JSONPath)
	}
	return nil
}
