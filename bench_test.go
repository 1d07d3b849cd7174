// Benchmarks timing the paper's quantitative claims, one family per
// experiment E1–E14 (E5, E9 and E11 are verdict tables, exercised here at
// a fixed size; E14 is in bench_ext_test.go). The package tests check each
// claim; these time it. Run with:
//
//	go test -run '^$' -bench 'E[0-9]+' -benchmem .
//
// The E8 direct, E10 union-find and E13 linear-test benchmarks time
// reference code kept in the automata and kequiv tests, and live there.
package ccs_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ccs/internal/core"
	"ccs/internal/expr"
	"ccs/internal/failures"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/kequiv"
	"ccs/internal/partition"
	"ccs/internal/reductions"
)

// --- E1: Theorem 3.1 — strong equivalence, naive vs Paige-Tarjan ---------

// benchStrong times the strong partition of a random restricted process:
// Paige-Tarjan through core, or the naive method of Lemma 3.2 on the same
// Lemma 3.1 instance.
func benchStrong(b *testing.B, naive bool, n int) {
	rng := rand.New(rand.NewSource(1))
	f := gen.RandomRestricted(rng, n, 4*n, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			partition.RefineStepsIndex(core.IndexOf(f), core.ExtInitial(f), -1)
		} else {
			core.StrongPartition(f)
		}
	}
}

func BenchmarkE1StrongEquivalencePaigeTarjan(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchStrong(b, false, n) })
	}
}

func BenchmarkE1StrongEquivalenceNaive(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchStrong(b, true, n) })
	}
}

// --- E2: Lemma 3.2 — the naive method's Θ(nm) family ---------------------

func BenchmarkE2NaivePartitionSplitterChain(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := gen.SplitterChain(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				partition.RefineStepsIndex(core.IndexOf(f), core.ExtInitial(f), -1)
			}
		})
	}
}

func BenchmarkE2PaigeTarjanSplitterChain(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := gen.SplitterChain(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.StrongPartition(f)
			}
		})
	}
}

// --- E3: Theorem 4.1(a) — observational equivalence is polynomial --------

func BenchmarkE3WeakEquivalence(b *testing.B) {
	for _, n := range []int{64, 256, 512} {
		for _, tau := range []float64{0.1, 0.5} {
			b.Run(fmt.Sprintf("n=%d/tau=%.0f%%", n, tau*100), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				f := gen.Random(rng, n, 4*n, 2, tau)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := core.WeakPartition(f); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- E4: Lemma 2.3.1 — representative FSP construction -------------------

func BenchmarkE4Representative(b *testing.B) {
	for _, ops := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("ops=%d", ops), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			e := gen.RandomExpr(rng, ops, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := expr.Representative(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E5: Fig. 2 — the gallery, all three deciders per pair ---------------

func BenchmarkE5Fig2Gallery(b *testing.B) {
	gallery := gen.Fig2Gallery()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pair := range gallery {
			if _, err := kequiv.Equivalent(context.Background(), pair.P, pair.Q, 1); err != nil {
				b.Fatal(err)
			}
			if _, _, err := failures.Equivalent(context.Background(), pair.P, pair.Q); err != nil {
				b.Fatal(err)
			}
			if _, err := core.WeakEquivalent(pair.P, pair.Q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- E6: Theorem 4.1(b) — ≈_k on the ladder family ------------------------

func BenchmarkE6KObservationalLadder(b *testing.B) {
	// Pre-build the laddered pairs outside the timed loop.
	type pair struct {
		p, q *fsp.FSP
		k    int
	}
	var pairs []pair
	p := ladderSeedP()
	q := ladderSeedQ()
	for k := 1; k <= 4; k++ {
		pairs = append(pairs, pair{p: p, q: q, k: k})
		var err error
		p, q, err = reductions.Ladder(p, q)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, pr := range pairs {
		b.Run(fmt.Sprintf("k=%d", pr.k+1), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kequiv.Equivalent(context.Background(), pr.p, pr.q, pr.k+1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func ladderSeedP() *fsp.FSP {
	bd := fsp.NewBuilder("a2+a3")
	bd.AddStates(6)
	bd.ArcName(0, "a", 1)
	bd.ArcName(1, "a", 2)
	bd.ArcName(0, "a", 3)
	bd.ArcName(3, "a", 4)
	bd.ArcName(4, "a", 5)
	for s := fsp.State(0); s < 6; s++ {
		bd.Accept(s)
	}
	return bd.MustBuild()
}

func ladderSeedQ() *fsp.FSP {
	bd := fsp.NewBuilder("a(a+a2)+a")
	bd.AddStates(6)
	bd.ArcName(0, "a", 1)
	bd.ArcName(1, "a", 2)
	bd.ArcName(1, "a", 3)
	bd.ArcName(3, "a", 4)
	bd.ArcName(0, "a", 5)
	for s := fsp.State(0); s < 6; s++ {
		bd.Accept(s)
	}
	return bd.MustBuild()
}

// --- E7: Theorem 5.1 — failure equivalence blowup -------------------------

func BenchmarkE7FailureNondeterministic(b *testing.B) {
	for _, n := range []int{6, 10, 14} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			m := gen.RandomTotal(rng, n, n)
			mp, err := reductions.Lemma42(m)
			if err != nil {
				b.Fatal(err)
			}
			mq := reversed(mp)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := failures.Equivalent(context.Background(), mp, mq); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// reversed copies f with its states numbered in reverse: a failure
// equivalent copy that the decider cannot match state by state, so it
// sweeps the whole reachable subset-pair space.
func reversed(f *fsp.FSP) *fsp.FSP {
	n := fsp.State(f.NumStates())
	bd := fsp.NewBuilderWith(f.Name(), f.Alphabet().Clone(), f.Vars().Clone())
	bd.AddStates(int(n))
	bd.SetStart(n - 1 - f.Start())
	for s := fsp.State(0); s < n; s++ {
		for _, a := range f.Arcs(s) {
			bd.Arc(n-1-s, a.Act, n-1-a.To)
		}
		for _, id := range f.Ext(s).IDs() {
			bd.Extend(n-1-s, f.Vars().Name(id))
		}
	}
	return bd.MustBuild()
}

func BenchmarkE7FailureDeterministicControl(b *testing.B) {
	for _, n := range []int{24, 40, 56} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			f := detRestricted(rng, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := failures.Equivalent(context.Background(), f, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func detRestricted(rng *rand.Rand, n int) *fsp.FSP {
	bd := fsp.NewBuilder("det")
	bd.AddStates(n)
	for s := 0; s < n; s++ {
		bd.ArcName(fsp.State(s), "a", fsp.State(rng.Intn(n)))
		bd.ArcName(fsp.State(s), "b", fsp.State(rng.Intn(n)))
		bd.Accept(fsp.State(s))
	}
	return bd.MustBuild()
}

// --- E8: Lemma 4.2 — universality through the reduction -------------------

// BenchmarkE8UniversalityViaReduction decides L(M) = Sigma* as the paper
// does: build M' by Lemma 4.2 and check M' ≈_1 q*, the trivial process.
func BenchmarkE8UniversalityViaReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := gen.RandomTotal(rng, 8, 8)
	trivial := reductions.TrivialNFA("a", "b")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mp, err := reductions.Lemma42(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := kequiv.Equivalent(context.Background(), mp, trivial, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9: Prop. 2.2.3 — the hierarchy on random restricted processes ------

func BenchmarkE9Hierarchy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	type pr struct{ p, q *fsp.FSP }
	pairs := make([]pr, 16)
	for i := range pairs {
		pairs[i] = pr{
			p: gen.RandomRestricted(rng, 4, 8, 2),
			q: gen.RandomRestricted(rng, 4, 8, 2),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair := pairs[i%len(pairs)]
		weak, err := core.WeakEquivalent(pair.p, pair.q)
		if err != nil {
			b.Fatal(err)
		}
		fail, _, err := failures.Equivalent(context.Background(), pair.p, pair.q)
		if err != nil {
			b.Fatal(err)
		}
		trace, err := kequiv.Equivalent(context.Background(), pair.p, pair.q, 1)
		if err != nil {
			b.Fatal(err)
		}
		if (weak && !fail) || (fail && !trace) {
			b.Fatal("hierarchy violated")
		}
	}
}

// --- E10: Prop. 2.2.4 — deterministic collapse ----------------------------

func BenchmarkE10DeterministicPartition(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(fmt.Sprintf("partition/n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			f := gen.RandomDeterministic(rng, n, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.StrongPartition(f)
			}
		})
	}
}

// --- E11: Table I — classifier ---------------------------------------------

func BenchmarkE11Classifier(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := gen.Random(rng, 1024, 4096, 3, 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fsp.Classify(f)
	}
}

// --- E12: Section 2.3(3) — distributivity, language vs CCS ----------------

func BenchmarkE12Distributivity(b *testing.B) {
	left, right := mustParse(b, "a(b+c)"), mustParse(b, "ab+ac")
	b.Run("language", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := expr.LanguageEquivalent(left, right); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("ccs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := expr.CCSEquivalent(left, right); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E13: Fig. 5b/5d — chaos and the trivial-NFA shortcut -----------------

func BenchmarkE13TrivialGeneralDecider(b *testing.B) {
	trivial := reductions.TrivialNFA("a")
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cyc := gen.Cycle(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := kequiv.Equivalent(context.Background(), cyc, trivial, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// mustParse parses a star expression known to be well formed.
func mustParse(b *testing.B, src string) expr.Expr {
	e, err := expr.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return e
}
