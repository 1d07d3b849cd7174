package kequiv

import (
	"context"
	"testing"

	"ccs/internal/fsp"
	"ccs/internal/gen"
)

func TestPartitionZeroLevel(t *testing.T) {
	// ≈_0 groups by extension only.
	b := fsp.NewBuilder("")
	b.AddStates(3)
	b.Accept(0)
	b.Accept(1)
	f := b.MustBuild()
	p, levels, err := Partition(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if levels != 0 || p.NumBlocks() != 2 {
		t.Errorf("≈_0: levels=%d blocks=%d, want 0 and 2", levels, p.NumBlocks())
	}
	if !p.Same(0, 1) || p.Same(0, 2) {
		t.Errorf("extension grouping wrong")
	}
}

func TestEquivalentZero(t *testing.T) {
	// ≈_0 compares start-state extensions only.
	eq, err := Equivalent(context.Background(), gen.Chain(1), gen.Chain(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("≈_0 must hold for any two accepting starts")
	}
}

func TestTauOnlyProcess(t *testing.T) {
	// A process with only tau arcs: all states with equal extensions are
	// ≈_k for every k.
	b := fsp.NewBuilder("")
	b.AddStates(3)
	b.ArcName(0, fsp.TauName, 1)
	b.ArcName(1, fsp.TauName, 2)
	for s := fsp.State(0); s < 3; s++ {
		b.Accept(s)
	}
	f := b.MustBuild()
	p, _, err := Partition(f, -1)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumBlocks() != 1 {
		t.Errorf("tau-only restricted process should collapse: %d blocks", p.NumBlocks())
	}
}

func TestEquivalentToTrivialFromDeadStart(t *testing.T) {
	// A single dead accepting state over a unary alphabet is NOT trivial
	// (it refuses a immediately). It has no arcs, so the weak reachability
	// check must fail on the start state itself.
	b := fsp.NewBuilder("")
	b.AddStates(1)
	b.Action("a") // alphabet has a, but no arcs
	b.Accept(0)
	f := b.MustBuild()
	ok, err := EquivalentToTrivial(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("dead state reported ≈_2-trivial")
	}
}

func TestTraceWitnessIdenticalProcesses(t *testing.T) {
	p := gen.Chain(3)
	eq, word, err := TraceWitness(p, p)
	if err != nil {
		t.Fatal(err)
	}
	if !eq || word != nil {
		t.Errorf("self-comparison must be equal: %v %v", eq, word)
	}
}
