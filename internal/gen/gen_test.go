package gen

import (
	"context"
	"math/rand"
	"testing"

	"ccs/internal/core"
	"ccs/internal/failures"
	"ccs/internal/fsp"
	"ccs/internal/kequiv"
)

func TestGeneratorsProduceDeclaredClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	t.Run("restricted", func(t *testing.T) {
		f := RandomRestricted(rng, 10, 20, 2)
		cls := fsp.Classify(f)
		if !cls.Restricted || !cls.Observable {
			t.Errorf("not restricted observable: %+v", cls)
		}
	})
	t.Run("deterministic", func(t *testing.T) {
		f := RandomDeterministic(rng, 10, 3)
		if !fsp.Classify(f).Deterministic {
			t.Errorf("not deterministic")
		}
	})
	t.Run("tree", func(t *testing.T) {
		f := RandomTree(rng, 12, 2)
		cls := fsp.Classify(f)
		if !cls.Is(fsp.FiniteTree) {
			t.Errorf("not a finite tree: %+v", cls)
		}
	})
	t.Run("total", func(t *testing.T) {
		f := RandomTotal(rng, 8, 5)
		cls := fsp.Classify(f)
		if !cls.Standard || !cls.Observable {
			t.Errorf("not standard observable: %+v", cls)
		}
		a, _ := f.Alphabet().Lookup("a")
		b, _ := f.Alphabet().Lookup("b")
		for s := 0; s < f.NumStates(); s++ {
			if !f.HasAction(fsp.State(s), a) || !f.HasAction(fsp.State(s), b) {
				t.Errorf("state %d not total", s)
			}
		}
	})
	t.Run("splitter chain", func(t *testing.T) {
		// E2, Lemma 3.2's tightness: every naive round splits off one
		// state, so the fixed point takes n rounds and separates every
		// state.
		for _, n := range []int{64, 128} {
			f := SplitterChain(n)
			p, rounds, err := core.LimitedPartition(f, -1)
			if err != nil {
				t.Fatal(err)
			}
			if rounds != n || p.NumBlocks() != f.NumStates() {
				t.Errorf("n=%d: %d rounds to %d blocks, want %d and %d", n, rounds, p.NumBlocks(), n, f.NumStates())
			}
		}
	})
	t.Run("general with tau", func(t *testing.T) {
		f := Random(rng, 20, 60, 2, 0.5)
		if f.NumStates() != 20 {
			t.Errorf("state count wrong")
		}
	})
	t.Run("chain and cycle", func(t *testing.T) {
		if !fsp.Classify(Chain(4)).Is(fsp.RestrictedObservableUnary) {
			t.Errorf("chain not r.o.u.")
		}
		if !fsp.Classify(Cycle(4)).Is(fsp.RestrictedObservableUnary) {
			t.Errorf("cycle not r.o.u.")
		}
	})
}

func TestGeneratorsDeterministicFromSeed(t *testing.T) {
	f1 := Random(rand.New(rand.NewSource(99)), 15, 40, 3, 0.2)
	f2 := Random(rand.New(rand.NewSource(99)), 15, 40, 3, 0.2)
	if fsp.FormatString(f1) != fsp.FormatString(f2) {
		t.Errorf("same seed produced different processes")
	}
}

func TestRandomExprParses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		e := RandomExpr(rng, 1+rng.Intn(10), 2)
		if e == nil {
			t.Fatal("nil expression")
		}
		if e.Length() <= 0 {
			t.Errorf("bad length for %v", e)
		}
	}
}

func TestFig2GalleryVerdicts(t *testing.T) {
	// The gallery is the executable form of Fig. 2: every declared verdict
	// must be confirmed by the actual deciders.
	for _, pair := range Fig2Gallery() {
		t.Run(pair.Name, func(t *testing.T) {
			for _, f := range []*fsp.FSP{pair.P, pair.Q} {
				cls := fsp.Classify(f)
				if !cls.Is(fsp.RestrictedObservableUnary) {
					t.Fatalf("%s not r.o.u.", f.Name())
				}
			}
			trace, err := kequiv.Equivalent(context.Background(), pair.P, pair.Q, 1)
			if err != nil {
				t.Fatal(err)
			}
			if trace != pair.Trace {
				t.Errorf("≈_1 = %v, want %v", trace, pair.Trace)
			}
			fail, _, err := failures.Equivalent(context.Background(), pair.P, pair.Q)
			if err != nil {
				t.Fatal(err)
			}
			if fail != pair.Failure {
				t.Errorf("≡ = %v, want %v", fail, pair.Failure)
			}
			weak, err := core.WeakEquivalent(pair.P, pair.Q)
			if err != nil {
				t.Fatal(err)
			}
			if weak != pair.Weak {
				t.Errorf("≈ = %v, want %v", weak, pair.Weak)
			}
		})
	}
	// E9: the chain ≈ ⇒ ≡ ⇒ ≈_1 of Proposition 2.2.3 holds on random
	// restricted pairs too, not only on the gallery.
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	var n [3]int // pairs related by ≈, ≡ and ≈_1
	for trial := 0; trial < 300; trial++ {
		p := RandomRestricted(rng, 2+rng.Intn(4), rng.Intn(8), 2)
		q := RandomRestricted(rng, 2+rng.Intn(4), rng.Intn(8), 2)
		weak, err := core.WeakEquivalent(p, q)
		if err != nil {
			t.Fatal(err)
		}
		fail, _, err := failures.Equivalent(ctx, p, q)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := kequiv.Equivalent(ctx, p, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if weak && !fail || fail && !trace {
			t.Fatalf("trial %d: ≈ %v, ≡ %v, ≈_1 %v breaks the chain\np:\n%s\nq:\n%s",
				trial, weak, fail, trace, fsp.FormatString(p), fsp.FormatString(q))
		}
		for i, eq := range []bool{weak, fail, trace} {
			if eq {
				n[i]++
			}
		}
	}
	t.Logf("of 300 random restricted pairs, ≈ relates %d, ≡ %d and ≈_1 %d", n[0], n[1], n[2])
}

func TestGalleryWitnessesStrictInclusions(t *testing.T) {
	// Proposition 2.2.3's chain is strict: the gallery must contain a
	// trace-equal failure-different pair and a failure-equal weak-different
	// pair.
	var sawTraceOnly, sawFailureNotWeak bool
	for _, pair := range Fig2Gallery() {
		if pair.Trace && !pair.Failure {
			sawTraceOnly = true
		}
		if pair.Failure && !pair.Weak {
			sawFailureNotWeak = true
		}
	}
	if !sawTraceOnly {
		t.Error("gallery lacks a ≈_1-but-not-≡ witness")
	}
	if !sawFailureNotWeak {
		t.Error("gallery lacks a ≡-but-not-≈ witness")
	}
}
