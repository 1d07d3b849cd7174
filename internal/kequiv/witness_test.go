package kequiv

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"ccs/internal/fsp"
	"ccs/internal/gen"
)

func TestTraceWitnessAgreesWithK1OnRestricted(t *testing.T) {
	// On the restricted model, language equivalence IS ≈_1 (Prop 2.2.3b),
	// so the two implementations must agree.
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 120; trial++ {
		p := gen.RandomRestricted(rng, 2+rng.Intn(4), rng.Intn(8), 2)
		q := gen.RandomRestricted(rng, 2+rng.Intn(4), rng.Intn(8), 2)
		eqK, err := Equivalent(context.Background(), p, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		eqW, word, err := TraceWitness(p, q)
		if err != nil {
			t.Fatal(err)
		}
		if eqK != eqW {
			t.Fatalf("trial %d: ≈_1 decider says %v, witness machinery says %v", trial, eqK, eqW)
		}
		if !eqW {
			// The witness word must be accepted by exactly one side.
			inP := acceptsTrace(p, word)
			inQ := acceptsTrace(q, word)
			if inP == inQ {
				t.Fatalf("trial %d: witness %v does not distinguish (p=%v q=%v)", trial, word, inP, inQ)
			}
		}
	}
}

func TestK1FinerThanLanguageOnStandardModel(t *testing.T) {
	// In the standard (non-restricted) model, ≈_1 compares the languages of
	// BOTH extension classes. p = a (dead accept), q = a + a·a with only
	// the first a-target accepting: same accepted language {a}, but q has a
	// non-accepting a-derivative reaching depth 2, so ≈_1 separates them.
	b1 := fsp.NewBuilder("p")
	b1.AddStates(2)
	b1.ArcName(0, "a", 1)
	b1.Accept(1)
	p := b1.MustBuild()

	b2 := fsp.NewBuilder("q")
	b2.AddStates(4)
	b2.ArcName(0, "a", 1)
	b2.ArcName(0, "a", 2)
	b2.ArcName(2, "a", 3)
	b2.Accept(1)
	q := b2.MustBuild()

	langEq, _, err := TraceWitness(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !langEq {
		t.Fatalf("setup: accepted languages must coincide")
	}
	eq1, err := Equivalent(context.Background(), p, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eq1 {
		t.Errorf("≈_1 must separate: the non-accepting class languages differ")
	}
}

// acceptsTrace checks word membership in L(start) by weak simulation.
func acceptsTrace(f *fsp.FSP, word []string) bool {
	acts := make([]fsp.Action, len(word))
	for i, name := range word {
		a, ok := f.Alphabet().Lookup(name)
		if !ok {
			return false
		}
		acts[i] = a
	}
	sat, eps, err := fsp.Saturate(f)
	if err != nil {
		return false
	}
	derivs := sat.Dest(f.Start(), eps)
	for _, a := range acts {
		next := map[fsp.State]bool{}
		for _, d := range derivs {
			for _, e := range sat.Dest(d, a) {
				next[e] = true
			}
		}
		derivs = derivs[:0:0]
		for e := range next {
			derivs = append(derivs, e)
		}
	}
	for _, d := range derivs {
		if f.Accepting(d) {
			return true
		}
	}
	return false
}

func TestTraceWitnessShortest(t *testing.T) {
	// a vs aa: shortest distinguishing word is "aa".
	eq, word, err := TraceWitness(gen.Chain(1), gen.Chain(2))
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("chains of different lengths reported trace equal")
	}
	if strings.Join(word, "") != "aa" {
		t.Errorf("witness = %v, want [a a]", word)
	}
}

func TestTraceWitnessSeesThroughTau(t *testing.T) {
	// tau.a vs a: trace equal, no witness.
	b1 := fsp.NewBuilder("tau.a")
	b1.AddStates(3)
	b1.ArcName(0, fsp.TauName, 1)
	b1.ArcName(1, "a", 2)
	b1.Accept(0)
	b1.Accept(1)
	b1.Accept(2)
	p := b1.MustBuild()
	eq, word, err := TraceWitness(p, gen.Chain(1))
	if err != nil {
		t.Fatal(err)
	}
	if !eq || word != nil {
		t.Errorf("tau.a and a must be trace equal, got witness %v", word)
	}
}
