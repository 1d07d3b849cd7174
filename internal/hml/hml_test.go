package hml

import (
	"strings"
	"testing"

	"ccs/internal/core"
	"ccs/internal/fsp"
)

// branchingPair builds a(b+c) vs ab+ac inside one process.
// States: 0 a(b+c) root; 4 ab+ac root.
func branchingPair() *fsp.FSP {
	b := fsp.NewBuilder("pair")
	b.AddStates(9)
	b.ArcName(0, "a", 1)
	b.ArcName(1, "b", 2)
	b.ArcName(1, "c", 3)
	b.ArcName(4, "a", 5)
	b.ArcName(4, "a", 6)
	b.ArcName(5, "b", 7)
	b.ArcName(6, "c", 8)
	return b.MustBuild()
}

func TestSatisfiesBasics(t *testing.T) {
	f := branchingPair()
	a, _ := f.Alphabet().Lookup("a")
	bAct, _ := f.Alphabet().Lookup("b")

	if !Satisfies(f, 0, True{}) {
		t.Errorf("tt must hold everywhere")
	}
	diaA := Diamond{Act: a, Name: "a", Sub: True{}}
	if !Satisfies(f, 0, diaA) || Satisfies(f, 2, diaA) {
		t.Errorf("⟨a⟩tt evaluation wrong")
	}
	nested := Diamond{Act: a, Name: "a", Sub: Diamond{Act: bAct, Name: "b", Sub: True{}}}
	if !Satisfies(f, 0, nested) {
		t.Errorf("⟨a⟩⟨b⟩tt must hold at 0")
	}
	neg := Not{Sub: nested}
	if Satisfies(f, 0, neg) {
		t.Errorf("negation wrong")
	}
	conj := And{Subs: []Formula{diaA, Not{Sub: Diamond{Act: bAct, Name: "b", Sub: True{}}}}}
	if !Satisfies(f, 0, conj) {
		t.Errorf("conjunction wrong")
	}
	if !Satisfies(f, 0, And{}) {
		t.Errorf("empty conjunction must be tt")
	}
}

func TestSatisfiesExtEq(t *testing.T) {
	b := fsp.NewBuilder("")
	b.AddStates(2)
	b.Accept(0)
	f := b.MustBuild()
	phi := ExtEq{Ext: f.Ext(0), Vars: f.Vars()}
	if !Satisfies(f, 0, phi) || Satisfies(f, 1, phi) {
		t.Errorf("ext atom evaluation wrong")
	}
}

func TestDistinguishBranching(t *testing.T) {
	f := branchingPair()
	phi, err := Distinguish(f, 0, 4)
	if err != nil {
		t.Fatalf("Distinguish: %v", err)
	}
	if !Satisfies(f, 0, phi) {
		t.Errorf("formula %s must hold at state 0", phi)
	}
	if Satisfies(f, 4, phi) {
		t.Errorf("formula %s must fail at state 4", phi)
	}
}

func TestDistinguishSymmetric(t *testing.T) {
	f := branchingPair()
	phi, err := Distinguish(f, 4, 0)
	if err != nil {
		t.Fatalf("Distinguish: %v", err)
	}
	if !Satisfies(f, 4, phi) || Satisfies(f, 0, phi) {
		t.Errorf("formula %s does not distinguish 4 from 0", phi)
	}
}

func TestDistinguishEquivalentFails(t *testing.T) {
	f := branchingPair()
	// States 2 and 3 are both dead with empty extension: equivalent.
	if _, err := Distinguish(f, 2, 3); err == nil {
		t.Errorf("expected error for equivalent states")
	}
}

func TestDistinguishByExtension(t *testing.T) {
	b := fsp.NewBuilder("")
	b.AddStates(2)
	b.Accept(0)
	f := b.MustBuild()
	phi, err := Distinguish(f, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := phi.(ExtEq); !ok {
		t.Errorf("expected an extension atom, got %s", phi)
	}
	if !Satisfies(f, 0, phi) || Satisfies(f, 1, phi) {
		t.Errorf("extension formula wrong")
	}
}

func TestDistinguishWeak(t *testing.T) {
	// a + tau.b vs a + b are weakly inequivalent; get a weak formula.
	b := fsp.NewBuilder("")
	b.AddStates(7)
	b.ArcName(0, "a", 1)
	b.ArcName(0, fsp.TauName, 2)
	b.ArcName(2, "b", 3)
	b.ArcName(4, "a", 5)
	b.ArcName(4, "b", 6)
	f := b.MustBuild()

	phi, sat, err := DistinguishWeak(f, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !Satisfies(sat, 0, phi) || Satisfies(sat, 4, phi) {
		t.Errorf("weak formula %s does not distinguish", phi)
	}
}

func TestDistinguishWeakEquivalentFails(t *testing.T) {
	// tau.a ≈ a: no weak distinguishing formula exists.
	b := fsp.NewBuilder("")
	b.AddStates(5)
	b.ArcName(0, fsp.TauName, 1)
	b.ArcName(1, "a", 2)
	b.ArcName(3, "a", 4)
	f := b.MustBuild()
	part, err := core.WeakPartition(f)
	if err != nil || !part.Same(0, 3) {
		t.Fatalf("setup: tau.a ≈ a expected (err %v)", err)
	}
	if _, _, err := DistinguishWeak(f, 0, 3); err == nil {
		t.Errorf("expected error for weakly equivalent states")
	}
}

// TestDistinguishAgainstCoreOnRandomPairs: for every pair of states the
// formula exists iff they are not strongly equivalent, and when it exists
// it distinguishes.
func TestDistinguishAgainstCore(t *testing.T) {
	f := branchingPair()
	part := core.StrongPartition(f)
	n := f.NumStates()
	for p := 0; p < n; p++ {
		for q := 0; q < n; q++ {
			same := part.Same(int32(p), int32(q))
			phi, err := Distinguish(f, fsp.State(p), fsp.State(q))
			if same && err == nil {
				t.Errorf("(%d,%d) equivalent but formula %s produced", p, q, phi)
			}
			if !same {
				if err != nil {
					t.Errorf("(%d,%d) inequivalent but no formula: %v", p, q, err)
					continue
				}
				if !Satisfies(f, fsp.State(p), phi) || Satisfies(f, fsp.State(q), phi) {
					t.Errorf("(%d,%d): formula %s does not distinguish", p, q, phi)
				}
			}
		}
	}
}

func TestFormulaStringAndSize(t *testing.T) {
	f := branchingPair()
	a, _ := f.Alphabet().Lookup("a")
	phi := Diamond{Act: a, Name: "a", Sub: And{Subs: []Formula{
		True{},
		Not{Sub: Diamond{Act: a, Name: "a", Sub: True{}}},
	}}}
	s := phi.String()
	for _, want := range []string{"⟨a⟩", "¬", "tt", "∧"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if Size(phi) != 6 {
		t.Errorf("Size = %d, want 6", Size(phi))
	}
	if (And{}).String() != "tt" {
		t.Errorf("empty conjunction renders as %q", (And{}).String())
	}
	one := And{Subs: []Formula{True{}}}
	if one.String() != "tt" {
		t.Errorf("singleton conjunction renders as %q", one.String())
	}
}
