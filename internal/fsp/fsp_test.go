package fsp

import (
	"fmt"
	"strings"
	"testing"
)

// buildAB returns the process  0 --a--> 1 --b--> 2(x)  with a tau detour
// 0 --tau--> 3 --b--> 2.
func buildAB(t *testing.T) *FSP {
	t.Helper()
	b := NewBuilder("ab")
	b.AddStates(4)
	b.SetStart(0)
	b.ArcName(0, "a", 1)
	b.ArcName(1, "b", 2)
	b.ArcName(0, TauName, 3)
	b.ArcName(3, "b", 2)
	b.Accept(2)
	f, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return f
}

func TestBuilderBasics(t *testing.T) {
	f := buildAB(t)
	if got, want := f.NumStates(), 4; got != want {
		t.Errorf("NumStates = %d, want %d", got, want)
	}
	if got, want := f.NumTransitions(), 4; got != want {
		t.Errorf("NumTransitions = %d, want %d", got, want)
	}
	if f.Start() != 0 {
		t.Errorf("Start = %d, want 0", f.Start())
	}
	if !f.Accepting(2) {
		t.Errorf("state 2 should be accepting")
	}
	if f.Accepting(0) {
		t.Errorf("state 0 should not be accepting")
	}
	a, ok := f.Alphabet().Lookup("a")
	if !ok {
		t.Fatalf("action a missing")
	}
	if got := f.Dest(0, a); len(got) != 1 || got[0] != 1 {
		t.Errorf("Dest(0,a) = %v, want [1]", got)
	}
	if got := f.Dest(0, Tau); len(got) != 1 || got[0] != 3 {
		t.Errorf("Dest(0,tau) = %v, want [3]", got)
	}
	if !f.HasArc(0, a, 1) || f.HasArc(1, a, 0) {
		t.Errorf("HasArc answers wrong")
	}
}

func TestBuilderDeduplicatesArcs(t *testing.T) {
	b := NewBuilder("")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	b.ArcName(0, "a", 1)
	b.ArcName(0, "a", 1)
	f, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if f.NumTransitions() != 1 {
		t.Errorf("NumTransitions = %d, want 1 (Delta is a set)", f.NumTransitions())
	}
}

func TestBuilderErrors(t *testing.T) {
	t.Run("no states", func(t *testing.T) {
		if _, err := NewBuilder("").Build(); err == nil {
			t.Error("Build of empty process should fail")
		}
	})
	t.Run("bad state", func(t *testing.T) {
		b := NewBuilder("")
		b.AddState()
		b.ArcName(0, "a", 5)
		if _, err := b.Build(); err == nil {
			t.Error("arc to missing state should fail")
		}
	})
	t.Run("bad action index", func(t *testing.T) {
		b := NewBuilder("")
		b.AddStates(2)
		b.Arc(0, Action(99), 1)
		if _, err := b.Build(); err == nil {
			t.Error("unknown action index should fail")
		}
	})
}

// TestInitials: a state's initial observable actions are the ones it
// has an arc on, tau aside.
func TestInitials(t *testing.T) {
	b := NewBuilder("")
	b.AddStates(3)
	b.ArcName(0, "b", 1)
	b.ArcName(0, "a", 2)
	b.ArcName(0, "a", 1)
	b.ArcName(0, TauName, 1)
	b.Action("c")
	f := b.MustBuild()
	for _, name := range []string{"a", "b", "c"} {
		act, _ := f.Alphabet().Lookup(name)
		if got, want := f.HasAction(0, act), name != "c"; got != want {
			t.Errorf("HasAction(0, %s) = %v, want %v", name, got, want)
		}
		if f.HasAction(1, act) {
			t.Errorf("HasAction(1, %s) on a state without arcs", name)
		}
	}
}

func TestTransitionsSorted(t *testing.T) {
	f := buildAB(t)
	ts := f.Transitions()
	if len(ts) != 4 {
		t.Fatalf("Transitions len = %d", len(ts))
	}
	for i := 1; i < len(ts); i++ {
		a, b := ts[i-1], ts[i]
		if a.From > b.From {
			t.Errorf("transitions not sorted by from: %v before %v", a, b)
		}
	}
}

func TestReachable(t *testing.T) {
	b := NewBuilder("")
	b.AddStates(4)
	b.ArcName(0, "a", 1)
	b.ArcName(2, "a", 3) // 2,3 unreachable from start 0
	f := b.MustBuild()
	r := f.Reachable()
	want := []bool{true, true, false, false}
	for i := range want {
		if r[i] != want[i] {
			t.Errorf("Reachable[%d] = %v, want %v", i, r[i], want[i])
		}
	}
}

func TestAlphabet(t *testing.T) {
	a := NewAlphabet("x", "y")
	if a.Len() != 3 || a.NumObservable() != 2 {
		t.Fatalf("sizes wrong: %d/%d", a.Len(), a.NumObservable())
	}
	if a.Name(Tau) != TauName {
		t.Errorf("action 0 is %q, want tau", a.Name(Tau))
	}
	x, ok := a.Lookup("x")
	if !ok || a.Name(x) != "x" {
		t.Errorf("lookup x failed")
	}
	if a.Intern("x") != x {
		t.Errorf("re-interning changed index")
	}
	c := a.Clone()
	if !a.Equal(c) {
		t.Errorf("clone not equal")
	}
	c.Intern("z")
	if a.Equal(c) {
		t.Errorf("grown clone still equal")
	}
	if _, ok := a.Lookup("z"); ok {
		t.Errorf("clone mutation leaked into original")
	}
}

func TestVarSet(t *testing.T) {
	tbl := MustVarTable("x", "y")
	x, _ := tbl.Lookup("x")
	y, _ := tbl.Lookup("y")
	s := EmptyVars.With(x).With(y)
	if !s.Has(x) || !s.Has(y) || s.Len() != 2 {
		t.Fatalf("set membership wrong: %v", s)
	}
	if got := s.Format(tbl); got != "{x,y}" {
		t.Errorf("Format = %q", got)
	}
	if ids := s.IDs(); len(ids) != 2 || ids[0] != x || ids[1] != y {
		t.Errorf("IDs = %v", ids)
	}
}

func TestVarTableLimit(t *testing.T) {
	tbl := &VarTable{index: map[string]VarID{}}
	for i := 0; i < MaxVars; i++ {
		if _, err := tbl.Intern(strings.Repeat("v", i+1)); err != nil {
			t.Fatalf("intern %d: %v", i, err)
		}
	}
	if _, err := tbl.Intern("overflow"); err == nil {
		t.Error("expected overflow error")
	}
}

func TestDisjointUnion(t *testing.T) {
	f := buildAB(t)
	g := buildAB(t)
	u, off, err := DisjointUnion(f, g)
	if err != nil {
		t.Fatalf("DisjointUnion: %v", err)
	}
	if u.NumStates() != 8 || off != 4 {
		t.Fatalf("union shape wrong: states=%d off=%d", u.NumStates(), off)
	}
	if u.NumTransitions() != 8 {
		t.Errorf("union transitions = %d, want 8", u.NumTransitions())
	}
	a, _ := u.Alphabet().Lookup("a")
	if got := u.Dest(off, a); len(got) != 1 || got[0] != off+1 {
		t.Errorf("g-copy arcs wrong: %v", got)
	}
	if !u.Accepting(2) || !u.Accepting(off+2) {
		t.Errorf("extensions not copied")
	}
}

func TestRenumber(t *testing.T) {
	f := buildAB(t)
	perm := []State{3, 2, 1, 0}
	g, err := Renumber(f, perm)
	if err != nil {
		t.Fatalf("Renumber: %v", err)
	}
	if g.Start() != 3 {
		t.Errorf("start = %d, want 3", g.Start())
	}
	a, _ := g.Alphabet().Lookup("a")
	if got := g.Dest(3, a); len(got) != 1 || got[0] != 2 {
		t.Errorf("renumbered arc wrong: %v", got)
	}
	if !g.Accepting(1) {
		t.Errorf("renumbered extension wrong")
	}
	if _, err := Renumber(f, []State{0, 0, 1, 2}); err == nil {
		t.Error("non-permutation accepted")
	}
	if _, err := Renumber(f, []State{0}); err == nil {
		t.Error("short permutation accepted")
	}
}

// Renumber returns a copy of f whose states are renumbered by perm:
// new state perm[s] plays the role of old state s. perm must be a
// permutation of [0, NumStates).
func Renumber(f *FSP, perm []State) (*FSP, error) {
	if len(perm) != f.NumStates() {
		return nil, fmt.Errorf("permutation has %d entries, want %d", len(perm), f.NumStates())
	}
	seen := make([]bool, len(perm))
	for _, p := range perm {
		if int(p) < 0 || int(p) >= len(perm) || seen[p] {
			return nil, fmt.Errorf("not a permutation")
		}
		seen[p] = true
	}
	b := NewBuilderWith(f.name, f.alphabet.Clone(), f.vars.Clone())
	b.AddStates(f.NumStates())
	b.SetStart(perm[f.start])
	for s := 0; s < f.NumStates(); s++ {
		for _, a := range f.adj[s] {
			b.Arc(perm[s], a.Act, perm[a.To])
		}
		for _, id := range f.ext[s].IDs() {
			b.Extend(perm[s], f.vars.Name(id))
		}
	}
	return b.Build()
}
