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

// The E23 gate on full runs: the game refutes the starved quorum
// bq-swarm-12-4-overfaulty within e23MaxPairs pairs (2 at GOMAXPROCS 1, 2
// and 8), while minimize-then-compose builds its whole e23StarvedStates
// product.
const (
	e23MaxPairs      = 8
	e23StarvedStates = 924
)

// e23JSONPath, when non-empty, is where runE23 writes its BENCH_E23.json
// trajectory. main wires it to the -e23json flag; the test harness leaves
// it empty so test runs produce no files.
var e23JSONPath string

type e23Row struct {
	Entry       string  `json:"entry"`
	Expect      bool    `json:"expect_equivalent"`
	SyncRules   int     `json:"sync_rules"`
	MTCStates   int     `json:"mtc_product_states"`
	MTCNS       int64   `json:"minimize_then_compose_ns"`
	OTFNS       int64   `json:"on_the_fly_ns"`
	OTFPairs    int     `json:"otf_pairs"`
	OTFExplored int     `json:"otf_explored"`
	Speedup     float64 `json:"speedup"`
}

type e23Report struct {
	Experiment  string   `json:"experiment"`
	Description string   `json:"description"`
	Seed        int64    `json:"seed"`
	Quick       bool     `json:"quick"`
	GeneratedAt string   `json:"generated_at"`
	Rows        []e23Row `json:"rows"`
}

// runE23 measures both engine routes on the sync-vector protocol
// workloads — networks whose product steps include n-way rendezvous from
// an explicit synchronization table, not just pairwise CCS handshakes:
//
//   - deep-spec: the ratified leader election, unanimous two-phase commit
//     and satisfied Byzantine quorum, where both routes sweep comparable
//     state counts but the game skips the product's materialization and
//     refinement;
//   - starved-quorum (early mismatch): a Byzantine quorum with more
//     faults than f<n/3 tolerates, where the (2f+1)-way decide rendezvous
//     never assembles — the game refutes the root after a handful of
//     pairs while MTC still materializes and partitions the whole
//     gossip-ring product.
//
// Both routes must agree on every verdict and every OTF run must actually
// be on the fly (no fallback). On full runs the CI gate is the structural
// fact behind the starved quorum's margin, counted rather than timed: the
// game refutes it within e23MaxPairs pairs while MTC's product has its
// e23StarvedStates states. Counts do not move with runner noise, and they
// do not move when deriving MTC's quotients gets faster either, which
// made the former ≥ 2x wall-time ratio a measure of the product's
// saturation rather than of the game.
func runE23(w io.Writer, seed int64, quick bool) error {
	ringN, pcN := 7, 6
	bqN, bqF, bqFaulty := 7, 2, 2
	// The starved swarm: 8 honest of 12 replicas miss the 2f+1 = 9 quorum,
	// and 6 gossip tokens spread the minimized product over every token
	// placement — big for MTC, refuted at the root by the game.
	starvedN, starvedF, starvedFaulty, starvedHolders := 12, 4, 4, 6
	if quick {
		ringN, pcN = 4, 3
		bqN, bqF, bqFaulty = 4, 1, 1
		starvedN, starvedF, starvedFaulty, starvedHolders = 4, 1, 2, 2
	}
	cases := []struct {
		name    string
		net     *compose.Network
		spec    *fsp.FSP
		expect  bool
		starved bool
	}{
		{fmt.Sprintf("leader-ring-%d (deep spec)", ringN), gen.ElectionRing(ringN), gen.ElectionSpec(), true, false},
		{fmt.Sprintf("2pc-%d-commit (deep spec)", pcN), gen.TwoPhaseCommit(pcN, 0), gen.DecisionSpec("commit"), true, false},
		{fmt.Sprintf("bq-%d-%d (quorum met)", bqN, bqF), gen.ByzantineQuorum(bqN, bqF, bqFaulty), gen.DecideSpec(), true, false},
		{fmt.Sprintf("bq-swarm-%d-%d-overfaulty (early mismatch)", starvedN, starvedF),
			gen.ByzantineQuorumSwarm(starvedN, starvedF, starvedFaulty, starvedHolders), gen.DecideSpec(), false, true},
	}

	report := e23Report{
		Experiment:  "E23",
		Description: "sync-vector protocols: minimize-then-compose vs on-the-fly game over n-way rendezvous products",
		Seed:        seed,
		Quick:       quick,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
	}
	ctx := context.Background()
	fmt.Fprintf(w, "%-36s %6s %10s %14s %14s %8s %8s %8s\n",
		"entry", "rules", "mtc-states", "mtc", "on-the-fly", "pairs", "speedup", "verdict")
	for _, tc := range cases {
		// MTC route: fresh engine per measurement, so the timing includes
		// the per-component quotients, the product of the minima (vectors
		// and all), and the final quotient-and-partition check.
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
			return fmt.Errorf("e23: %s fell back to minimize-then-compose: %s", tc.name, info.Fallback)
		}
		if mtcVerdict != otfVerdict {
			return fmt.Errorf("e23: routes disagree on %s: mtc=%v otf=%v", tc.name, mtcVerdict, otfVerdict)
		}
		if mtcVerdict != tc.expect {
			return fmt.Errorf("e23: %s verdict %v, want %v", tc.name, mtcVerdict, tc.expect)
		}

		// Like E18, the gate holds on full runs only; quick mode is the
		// CI correctness smoke, on a smaller swarm.
		if tc.starved && !quick && (info.Pairs > e23MaxPairs || mtcStates != e23StarvedStates) {
			return fmt.Errorf("e23: %s: the game visited %d pairs (want <= %d) against an MTC product of %d states (want %d)",
				tc.name, info.Pairs, e23MaxPairs, mtcStates, e23StarvedStates)
		}
		speedup := float64(mtcT) / float64(otfT)
		fmt.Fprintf(w, "%-36s %6d %10d %14s %14s %8d %7.1fx %8v\n",
			tc.name, len(tc.net.Sync), mtcStates,
			mtcT.Round(time.Microsecond), otfT.Round(time.Microsecond),
			info.Pairs, speedup, otfVerdict)
		report.Rows = append(report.Rows, e23Row{
			Entry:       tc.name,
			Expect:      tc.expect,
			SyncRules:   len(tc.net.Sync),
			MTCStates:   mtcStates,
			MTCNS:       mtcT.Nanoseconds(),
			OTFNS:       otfT.Nanoseconds(),
			OTFPairs:    info.Pairs,
			OTFExplored: info.Explored,
			Speedup:     speedup,
		})
	}
	fmt.Fprintf(w, "expect: the starved quorum's missing rendezvous refutes the root in <= %d\n", e23MaxPairs)
	fmt.Fprintf(w, "        pairs, while MTC materializes the whole %d-state gossip-ring product\n", e23StarvedStates)
	if e23JSONPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return fmt.Errorf("e23: %w", err)
		}
		if err := os.WriteFile(e23JSONPath, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("e23: %w", err)
		}
		fmt.Fprintf(w, "trajectory written to %s\n", e23JSONPath)
	}
	return nil
}
