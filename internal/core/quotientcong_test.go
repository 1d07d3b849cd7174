package core_test

import (
	"math/rand"
	"testing"

	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

func buildTauChain() *fsp.FSP {
	b := fsp.NewBuilder("tau.a")
	b.AddStates(3)
	b.ArcName(0, fsp.TauName, 1)
	b.ArcName(1, "a", 2)
	return b.MustBuild()
}

// TestQuotientCongruenceRootCase: tau·a is the canonical separation. Its
// ≈-quotient is the plain chain a (the initial tau vanishes inside the
// root class), which is ≈ but NOT ≈ᶜ to tau·a; the congruence quotient
// must keep the root condition — at zero extra states (root tau
// self-loop).
func TestQuotientCongruenceRootCase(t *testing.T) {
	f := buildTauChain()
	weak, _, err := core.QuotientWeak(f)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := core.ObservationCongruent(f, weak); err != nil {
		t.Fatal(err)
	} else if ok {
		t.Fatal("test premise broken: weak quotient of tau.a is ≈ᶜ to it")
	}
	cong, _, err := core.QuotientCongruence(f)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := core.ObservationCongruent(f, cong); err != nil {
		t.Fatal(err)
	} else if !ok {
		t.Fatal("congruence quotient of tau.a is not ≈ᶜ to it")
	}
	if got, want := cong.NumStates(), weak.NumStates(); got != want {
		t.Errorf("congruence quotient has %d states, want %d (one per ≈-class)", got, want)
	}
}

// TestQuotientCongruenceStableRoot: with no initial tau into the root
// class, the congruence quotient is exactly the weak quotient.
func TestQuotientCongruenceStableRoot(t *testing.T) {
	f := gen.BufferCell(3)
	weak, _, err := core.QuotientWeak(f)
	if err != nil {
		t.Fatal(err)
	}
	cong, _, err := core.QuotientCongruence(f)
	if err != nil {
		t.Fatal(err)
	}
	if cong.NumStates() != weak.NumStates() {
		t.Errorf("stable-root congruence quotient has %d states, weak quotient %d", cong.NumStates(), weak.NumStates())
	}
	if ok, err := core.ObservationCongruent(f, cong); err != nil || !ok {
		t.Fatalf("congruence quotient not ≈ᶜ to cell: %v %v", ok, err)
	}
}

// TestQuotientCongruenceProperty: across the random generator, the
// congruence quotient must be ≈ᶜ (hence ≈) to its source and exactly the
// size of the ≈-quotient (one state per class). This is the soundness
// contract the minimize-then-compose pipeline leans on.
func TestQuotientCongruenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 60; i++ {
		f := gen.Random(rng, 2+rng.Intn(8), 2+rng.Intn(16), 3, 0.3)
		cong, _, err := core.QuotientCongruence(f)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := core.ObservationCongruent(f, cong); err != nil {
			t.Fatal(err)
		} else if !ok {
			t.Fatalf("iter %d: quotient not ≈ᶜ to source\n%s", i, fsp.FormatString(f))
		}
		weak, _, err := core.QuotientWeak(f)
		if err != nil {
			t.Fatal(err)
		}
		if cong.NumStates() != weak.NumStates() {
			t.Fatalf("iter %d: congruence quotient %d states, weak %d", i, cong.NumStates(), weak.NumStates())
		}
	}
}

// TestQuotientCongruenceTauSelfLoop: a tau self-loop at the root is an
// in-class tau move, so the fix must trigger and the result must stay ≈ᶜ.
func TestQuotientCongruenceTauSelfLoop(t *testing.T) {
	b := fsp.NewBuilder("spin+a")
	b.AddStates(2)
	b.ArcName(0, fsp.TauName, 0)
	b.ArcName(0, "a", 1)
	f := b.MustBuild()
	cong, _, err := core.QuotientCongruence(f)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := core.ObservationCongruent(f, cong); err != nil || !ok {
		t.Fatalf("self-loop root: quotient not ≈ᶜ (%v, %v)", ok, err)
	}
}
