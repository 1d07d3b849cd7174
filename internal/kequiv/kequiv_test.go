package kequiv

import (
	"context"
	"math/rand"
	"testing"

	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// restrictedChain builds the r.o.u. process a^len (all states accepting).
func restrictedChain(length int) *fsp.FSP {
	b := fsp.NewBuilder("chain")
	b.AddStates(length + 1)
	for i := 0; i < length; i++ {
		b.ArcName(fsp.State(i), "a", fsp.State(i+1))
	}
	for s := 0; s <= length; s++ {
		b.Accept(fsp.State(s))
	}
	return b.MustBuild()
}

// branching builds a(b+c) and ab+ac, the standard trace-equal
// bisimulation-different pair, as restricted observable processes.
func branching() (*fsp.FSP, *fsp.FSP) {
	b1 := fsp.NewBuilder("a(b+c)")
	b1.AddStates(4)
	b1.ArcName(0, "a", 1)
	b1.ArcName(1, "b", 2)
	b1.ArcName(1, "c", 3)
	for s := fsp.State(0); s < 4; s++ {
		b1.Accept(s)
	}
	b2 := fsp.NewBuilder("ab+ac")
	b2.AddStates(5)
	b2.ArcName(0, "a", 1)
	b2.ArcName(0, "a", 2)
	b2.ArcName(1, "b", 3)
	b2.ArcName(2, "c", 4)
	for s := fsp.State(0); s < 5; s++ {
		b2.Accept(s)
	}
	return b1.MustBuild(), b2.MustBuild()
}

func TestTraceEquivalentBranching(t *testing.T) {
	p, q := branching()
	eq, err := TraceEquivalent(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("a(b+c) ≈_1 ab+ac must hold (same language)")
	}
	// ≈_2 must separate them: after "a", the derivative classes differ.
	eq2, err := Equivalent(context.Background(), p, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if eq2 {
		t.Errorf("a(b+c) ≈_2 ab+ac must NOT hold")
	}
}

func TestKLadderIsDecreasing(t *testing.T) {
	p, q := branching()
	u, off, err := fsp.DisjointUnion(p, q)
	if err != nil {
		t.Fatal(err)
	}
	prevEq := true
	for k := 0; k <= 4; k++ {
		eq, _, err := equivalentStates(context.Background(), u, p.Start(), off+q.Start(), k)
		if err != nil {
			t.Fatal(err)
		}
		if eq && !prevEq {
			t.Errorf("≈_%d holds after separation at an earlier level", k)
		}
		prevEq = eq
	}
}

func TestChainLengths(t *testing.T) {
	// Chains of equal length are ≈_k for all k; different lengths are
	// separated already by ≈_1 (different languages).
	same, err := Equivalent(context.Background(), restrictedChain(3), restrictedChain(3), -1)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Errorf("equal chains must be ≈")
	}
	diff, err := Equivalent(context.Background(), restrictedChain(3), restrictedChain(4), 1)
	if err != nil {
		t.Fatal(err)
	}
	if diff {
		t.Errorf("chains of different length must be separated by ≈_1")
	}
}

func TestFixpointMatchesWeakEquivalence(t *testing.T) {
	// The ≈_k fixed point must agree with the polynomial-time observational
	// equivalence of the core package (Proposition 2.2.1c), including on a
	// process with tau moves.
	b := fsp.NewBuilder("tau-mix")
	b.AddStates(7)
	b.ArcName(0, "a", 1)
	b.ArcName(1, fsp.TauName, 2)
	b.ArcName(2, "b", 3)
	b.ArcName(0, fsp.TauName, 4)
	b.ArcName(4, "a", 5)
	b.ArcName(5, "b", 6)
	for s := fsp.State(0); s < 7; s++ {
		b.Accept(s)
	}
	f := b.MustBuild()

	kfix, _, err := Partition(f, -1)
	if err != nil {
		t.Fatal(err)
	}
	weak, err := core.WeakPartition(f)
	if err != nil {
		t.Fatal(err)
	}
	if !kfix.Equal(weak) {
		t.Errorf("≈_k fixpoint %v != weak partition %v", kfix.Blocks(), weak.Blocks())
	}
}

func TestFixpointMatchesWeakOnBranching(t *testing.T) {
	p, q := branching()
	u, off, err := fsp.DisjointUnion(p, q)
	if err != nil {
		t.Fatal(err)
	}
	kfix, _, err := Partition(u, -1)
	if err != nil {
		t.Fatal(err)
	}
	weak, err := core.WeakPartition(u)
	if err != nil {
		t.Fatal(err)
	}
	if !kfix.Equal(weak) {
		t.Errorf("≈_k fixpoint %v != weak %v", kfix.Blocks(), weak.Blocks())
	}
	_ = off
}

func TestPartitionLevelsStopEarly(t *testing.T) {
	f := restrictedChain(2)
	_, levels, err := Partition(f, 50)
	if err != nil {
		t.Fatal(err)
	}
	if levels > 5 {
		t.Errorf("ladder for a tiny chain took %d levels", levels)
	}
}

func TestEquivalentToTrivial(t *testing.T) {
	// A total unary cycle is ≈_2 the trivial NFA.
	b := fsp.NewBuilder("cycle")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	b.ArcName(1, "a", 0)
	b.Accept(0)
	b.Accept(1)
	cyc := b.MustBuild()
	ok, err := EquivalentToTrivial(cyc, cyc.Start())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("total cycle must be ≈_2-trivial")
	}

	// A chain has a dead end: not trivial.
	ch := restrictedChain(2)
	ok, err = EquivalentToTrivial(ch, ch.Start())
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("chain must not be ≈_2-trivial")
	}

	// Tau-reachability counts: 0 --tau--> total cycle is trivial.
	b3 := fsp.NewBuilder("tau-into-cycle")
	b3.AddStates(3)
	b3.ArcName(0, fsp.TauName, 1)
	b3.ArcName(1, "a", 2)
	b3.ArcName(2, "a", 1)
	for s := fsp.State(0); s < 3; s++ {
		b3.Accept(s)
	}
	tc := b3.MustBuild()
	ok, err = EquivalentToTrivial(tc, tc.Start())
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("tau into a total cycle must be ≈_2-trivial")
	}

	// Non-restricted processes are rejected.
	b4 := fsp.NewBuilder("std")
	b4.AddStates(1)
	std := b4.MustBuild()
	if _, err := EquivalentToTrivial(std, 0); err == nil {
		t.Error("non-restricted process accepted")
	}
}

func TestEquivalenceIsEquivalenceRelation(t *testing.T) {
	// Reflexivity and symmetry on a nontrivial instance.
	p, q := branching()
	for k := 0; k <= 3; k++ {
		eqPP, err := Equivalent(context.Background(), p, p, k)
		if err != nil {
			t.Fatal(err)
		}
		if !eqPP {
			t.Errorf("≈_%d not reflexive", k)
		}
		eqPQ, err := Equivalent(context.Background(), p, q, k)
		if err != nil {
			t.Fatal(err)
		}
		eqQP, err := Equivalent(context.Background(), q, p, k)
		if err != nil {
			t.Fatal(err)
		}
		if eqPQ != eqQP {
			t.Errorf("≈_%d not symmetric", k)
		}
	}
}

// TestEquivalentStatesMatchesPartition: the pair-only decision agrees with
// the full ≈_k partition, state pair by state pair, on every level the
// ladder distinguishes and at its fixed point.
func TestEquivalentStatesMatchesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var procs []*fsp.FSP
	for i := 0; i < 6; i++ {
		procs = append(procs,
			gen.Random(rng, 4+rng.Intn(8), 20, 2, 0),        // standard, observable
			gen.RandomRestricted(rng, 4+rng.Intn(8), 16, 2), // restricted
			gen.Random(rng, 4+rng.Intn(8), 24, 2, 0.4))      // tau-rich
	}
	for _, g := range gen.Fig2Gallery() {
		u, _, err := fsp.DisjointUnion(g.P, g.Q)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, u)
	}
	for i, f := range procs {
		for _, k := range []int{0, 1, 2, 3, -1} {
			part, _, err := Partition(f, k)
			if err != nil {
				t.Fatal(err)
			}
			for p := fsp.State(0); int(p) < f.NumStates(); p++ {
				for q := fsp.State(0); int(q) < f.NumStates(); q++ {
					got, _, err := equivalentStates(context.Background(), f, p, q, k)
					if err != nil {
						t.Fatal(err)
					}
					if want := part.Same(int32(p), int32(q)); got != want {
						t.Fatalf("process %d (%s), k=%d, states %d,%d: EquivalentStates=%v, Partition=%v",
							i, f.Name(), k, p, q, got, want)
					}
				}
			}
		}
	}
}
