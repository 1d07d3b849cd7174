package simulation

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/kequiv"
)

// branchingPair: a(b+c) and ab+ac. The first simulates the second and not
// vice versa — the canonical asymmetry.
func branching() (*fsp.FSP, *fsp.FSP) {
	b1 := fsp.NewBuilder("a(b+c)")
	b1.AddStates(4)
	b1.ArcName(0, "a", 1)
	b1.ArcName(1, "b", 2)
	b1.ArcName(1, "c", 3)
	b2 := fsp.NewBuilder("ab+ac")
	b2.AddStates(5)
	b2.ArcName(0, "a", 1)
	b2.ArcName(0, "a", 2)
	b2.ArcName(1, "b", 3)
	b2.ArcName(2, "c", 4)
	return b1.MustBuild(), b2.MustBuild()
}

func TestSimulationAsymmetry(t *testing.T) {
	p, q := branching()
	// a(b+c) simulates ab+ac: each committed branch is tracked by the
	// uncommitted state.
	qp, err := Simulates(q, p)
	if err != nil {
		t.Fatal(err)
	}
	if !qp {
		t.Errorf("a(b+c) must simulate ab+ac")
	}
	// But ab+ac does NOT simulate a(b+c): the (b+c) state has no match.
	pq, err := Simulates(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if pq {
		t.Errorf("ab+ac must not simulate a(b+c)")
	}
	eq, err := Equivalent(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Errorf("the pair must not be simulation equivalent")
	}
}

func TestSimulationReflexiveOnIdentical(t *testing.T) {
	p := gen.Chain(3)
	q := gen.Chain(3)
	eq, err := Equivalent(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("identical chains must be simulation equivalent")
	}
}

func TestSimulationRespectsExtensions(t *testing.T) {
	b := fsp.NewBuilder("")
	b.AddStates(2)
	b.Accept(0)
	f := b.MustBuild()
	if SimulatesStates(f, 0, 1) || SimulatesStates(f, 1, 0) {
		t.Errorf("different extensions cannot simulate")
	}
}

// TestWeakSimulation: weak simulation is strong simulation on the
// saturated process (Theorem 4.1(a)'s P-hat), under which tau.a and a
// simulate each other.
func TestWeakSimulation(t *testing.T) {
	b1 := fsp.NewBuilder("tau.a")
	b1.AddStates(3)
	b1.ArcName(0, fsp.TauName, 1)
	b1.ArcName(1, "a", 2)
	p := b1.MustBuild()
	b2 := fsp.NewBuilder("a")
	b2.AddStates(2)
	b2.ArcName(0, "a", 1)
	q := b2.MustBuild()

	u, off, err := fsp.DisjointUnion(p, q)
	if err != nil {
		t.Fatal(err)
	}
	sat, _, err := fsp.Saturate(u)
	if err != nil {
		t.Fatal(err)
	}
	rel := Preorder(sat)
	if fwd, bwd := rel[p.Start()][off+q.Start()], rel[off+q.Start()][p.Start()]; !fwd || !bwd {
		t.Errorf("tau.a and a must weakly simulate each other: %v %v", fwd, bwd)
	}
	// Strongly, a does not simulate tau.a (the tau move is unmatched).
	strong, err := Simulates(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if strong {
		t.Errorf("a must not strongly simulate tau.a")
	}
}

// genProc mirrors the core package's generator.
type genProc struct{ f *fsp.FSP }

// Generate implements quick.Generator.
func (genProc) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 1 + rng.Intn(6)
	b := fsp.NewBuilder("q")
	b.AddStates(n)
	b.SetStart(fsp.State(rng.Intn(n)))
	names := []string{"a", "b"}
	arcs := rng.Intn(3 * n)
	for i := 0; i < arcs; i++ {
		b.ArcName(fsp.State(rng.Intn(n)), names[rng.Intn(len(names))], fsp.State(rng.Intn(n)))
	}
	for s := 0; s < n; s++ {
		if rng.Intn(2) == 0 {
			b.Accept(fsp.State(s))
		}
	}
	return reflect.ValueOf(genProc{f: b.MustBuild()})
}

// Property: the preorder is reflexive and transitive, and strong
// bisimilarity implies mutual similarity.
func TestQuickPreorderLaws(t *testing.T) {
	prop := func(g genProc) bool {
		f := g.f
		rel := Preorder(f)
		n := f.NumStates()
		for p := 0; p < n; p++ {
			if !rel[p][p] {
				return false
			}
			for q := 0; q < n; q++ {
				if !rel[p][q] {
					continue
				}
				for r := 0; r < n; r++ {
					if rel[q][r] && !rel[p][r] {
						return false
					}
				}
			}
		}
		strong := core.StrongPartition(f)
		for p := 0; p < n; p++ {
			for q := 0; q < n; q++ {
				if strong.Same(int32(p), int32(q)) && (!rel[p][q] || !rel[q][p]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Property: the spectrum ~ ⊆ sim-equiv ⊆ ≈_1 on restricted observable
// processes.
func TestQuickSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 120; trial++ {
		p := gen.RandomRestricted(rng, 2+rng.Intn(4), rng.Intn(8), 2)
		q := gen.RandomRestricted(rng, 2+rng.Intn(4), rng.Intn(8), 2)
		strong, err := core.StrongEquivalent(p, q)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Equivalent(p, q)
		if err != nil {
			t.Fatal(err)
		}
		trace, err := kequiv.Equivalent(context.Background(), p, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if strong && !sim {
			t.Fatalf("trial %d: ~ holds but simulation equivalence fails", trial)
		}
		if sim && !trace {
			t.Fatalf("trial %d: simulation equivalence holds but ≈_1 fails", trial)
		}
	}
}
