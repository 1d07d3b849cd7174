package fsp

import (
	"strings"
	"testing"
)

func TestBuilderExtendErrors(t *testing.T) {
	b := NewBuilder("")
	b.AddState()
	b.Extend(5, "x") // bad state
	if _, err := b.Build(); err == nil {
		t.Error("extend of missing state accepted")
	}
}

func TestBuilderErrSticky(t *testing.T) {
	b := NewBuilder("")
	b.AddState()
	b.ArcName(0, "a", 9) // error recorded
	b.ArcName(0, "a", 0) // further calls are no-ops w.r.t. error
	if b.Err() == nil {
		t.Fatal("error not recorded")
	}
	if _, err := b.Build(); err == nil {
		t.Error("Build ignored recorded error")
	}
}

func TestArcSnapshotIsolated(t *testing.T) {
	b := NewBuilder("")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	snap := b.ArcSnapshot(0)
	b.ArcName(0, "a", 0)
	if len(snap) != 1 {
		t.Errorf("snapshot mutated by later arcs")
	}
	if got := b.ArcSnapshot(9); got != nil {
		t.Errorf("snapshot of bad state should be nil")
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustBuild did not panic")
		}
	}()
	NewBuilder("").MustBuild() // no states
}

func TestMustVarTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustVarTable did not panic")
		}
	}()
	many := make([]string, MaxVars+1)
	for i := range many {
		many[i] = strings.Repeat("v", i+1)
	}
	MustVarTable(many...)
}

func TestSaturateTwiceFails(t *testing.T) {
	b := NewBuilder("")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	f := b.MustBuild()
	sat, _, err := Saturate(f)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Saturate(sat); err == nil {
		t.Error("saturating a saturated process must fail (ε collision)")
	}
}

func TestDisjointUnionDisjointAlphabets(t *testing.T) {
	b1 := NewBuilder("p")
	b1.AddStates(2)
	b1.ArcName(0, "left", 1)
	p := b1.MustBuild()
	b2 := NewBuilder("q")
	b2.AddStates(2)
	b2.ArcName(0, "right", 1)
	q := b2.MustBuild()
	u, off, err := DisjointUnion(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if u.Alphabet().NumObservable() != 2 {
		t.Errorf("union alphabet = %d observable actions, want 2", u.Alphabet().NumObservable())
	}
	r, ok := u.Alphabet().Lookup("right")
	if !ok {
		t.Fatal("action right missing from union")
	}
	if got := u.Dest(off, r); len(got) != 1 || got[0] != off+1 {
		t.Errorf("remapped arc wrong: %v", got)
	}
}

func TestIntersectDisjointAlphabetHalts(t *testing.T) {
	// Intersecting processes over disjoint alphabets yields a product with
	// no joint observable moves.
	b1 := NewBuilder("")
	b1.AddStates(2)
	b1.ArcName(0, "a", 1)
	p := b1.MustBuild()
	b2 := NewBuilder("")
	b2.AddStates(2)
	b2.ArcName(0, "b", 1)
	q := b2.MustBuild()
	prod, err := Intersect(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if prod.NumTransitions() != 0 {
		t.Errorf("product of disjoint alphabets has %d transitions", prod.NumTransitions())
	}
}

func TestFormatEmptyAlphabet(t *testing.T) {
	b := NewBuilder("silent")
	b.AddStates(2)
	b.ArcName(0, TauName, 1)
	f := b.MustBuild()
	text := FormatString(f)
	if strings.Contains(text, "alphabet") {
		t.Errorf("empty observable alphabet should omit the directive:\n%s", text)
	}
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if back.NumTransitions() != 1 {
		t.Errorf("tau arc lost in round trip")
	}
}

func TestStringMethods(t *testing.T) {
	b := NewBuilder("")
	b.AddStates(1)
	f := b.MustBuild()
	if !strings.Contains(f.String(), "states=1") {
		t.Errorf("FSP.String = %q", f.String())
	}
	a := NewAlphabet("a")
	if !strings.Contains(a.String(), "a") {
		t.Errorf("Alphabet.String = %q", a.String())
	}
	tbl := MustVarTable("x")
	c := tbl.Clone()
	if !tbl.Equal(c) {
		t.Errorf("cloned table unequal")
	}
	if _, err := c.Intern("y"); err != nil {
		t.Fatal(err)
	}
	if tbl.Equal(c) {
		t.Errorf("grown clone still equal")
	}
	if c.Name(0) != "x" || c.Len() != 2 {
		t.Errorf("table accessors wrong")
	}
}
