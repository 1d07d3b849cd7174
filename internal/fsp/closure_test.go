package fsp

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// buildTauChain returns 0 --tau--> 1 --tau--> 2 --a--> 3, with 3 accepting.
func buildTauChain(t *testing.T) *FSP {
	t.Helper()
	b := NewBuilder("tauchain")
	b.AddStates(4)
	b.ArcName(0, TauName, 1)
	b.ArcName(1, TauName, 2)
	b.ArcName(2, "a", 3)
	b.Accept(3)
	return b.MustBuild()
}

func TestTauClosure(t *testing.T) {
	f := buildTauChain(t)
	clo := TauClosure(f)
	tests := []struct {
		s    State
		want []State
	}{
		{0, []State{0, 1, 2}},
		{1, []State{1, 2}},
		{2, []State{2}},
		{3, []State{3}},
	}
	for _, tc := range tests {
		if got := clo.Of(tc.s); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("closure(%d) = %v, want %v", tc.s, got, tc.want)
		}
	}
}

func TestTauClosureCycle(t *testing.T) {
	b := NewBuilder("")
	b.AddStates(3)
	b.ArcName(0, TauName, 1)
	b.ArcName(1, TauName, 0)
	b.ArcName(1, TauName, 2)
	f := b.MustBuild()
	clo := TauClosure(f)
	if got := clo.Of(0); !reflect.DeepEqual(got, []State{0, 1, 2}) {
		t.Errorf("closure(0) = %v", got)
	}
	if got := clo.Of(1); !reflect.DeepEqual(got, []State{0, 1, 2}) {
		t.Errorf("closure(1) = %v", got)
	}
}

func TestExpandSet(t *testing.T) {
	f := buildTauChain(t)
	clo := TauClosure(f)
	got := clo.ExpandSet([]State{1, 3})
	if !reflect.DeepEqual(got, []State{1, 2, 3}) {
		t.Errorf("ExpandSet = %v", got)
	}
}

func TestWeakDest(t *testing.T) {
	f := buildTauChain(t)
	clo := TauClosure(f)
	a, _ := f.Alphabet().Lookup("a")
	// 0 ==a=> 3 through two taus.
	if got := WeakDest(f, clo, 0, a); !reflect.DeepEqual(got, []State{3}) {
		t.Errorf("WeakDest(0,a) = %v, want [3]", got)
	}
	if got := WeakDest(f, clo, 3, a); len(got) != 0 {
		t.Errorf("WeakDest(3,a) = %v, want empty", got)
	}
}

func TestSDerivatives(t *testing.T) {
	f := buildTauChain(t)
	a, _ := f.Alphabet().Lookup("a")
	if got := SDerivatives(f, 0, nil); !reflect.DeepEqual(got, []State{0, 1, 2}) {
		t.Errorf("eps derivatives = %v", got)
	}
	if got := SDerivatives(f, 0, []Action{a}); !reflect.DeepEqual(got, []State{3}) {
		t.Errorf("a derivatives = %v", got)
	}
	if got := SDerivatives(f, 0, []Action{a, a}); got != nil {
		t.Errorf("aa derivatives = %v, want nil", got)
	}
}

func TestSaturate(t *testing.T) {
	f := buildTauChain(t)
	sat, eps, err := Saturate(f)
	if err != nil {
		t.Fatalf("Saturate: %v", err)
	}
	if sat.NumStates() != f.NumStates() {
		t.Fatalf("saturation changed state count")
	}
	cls := Classify(sat)
	if !cls.Observable {
		t.Errorf("saturated FSP must be observable (no tau arcs)")
	}
	a, _ := sat.Alphabet().Lookup("a")
	// In P-hat, 0 --a--> 3 directly.
	if got := sat.Dest(0, a); !reflect.DeepEqual(got, []State{3}) {
		t.Errorf("sat.Dest(0,a) = %v, want [3]", got)
	}
	// Epsilon arcs mirror the closure, including the reflexive self-loop.
	if got := sat.Dest(0, eps); !reflect.DeepEqual(got, []State{0, 1, 2}) {
		t.Errorf("sat.Dest(0,eps) = %v", got)
	}
	if got := sat.Dest(3, eps); !reflect.DeepEqual(got, []State{3}) {
		t.Errorf("sat.Dest(3,eps) = %v", got)
	}
	// Extensions preserved.
	if !sat.Accepting(3) || sat.Accepting(0) {
		t.Errorf("saturation lost extensions")
	}
}

// wideLabelled returns a process of n states over about n/2 labels, each
// state with one labelled arc and about a third with a tau arc: an
// alphabet that grows with the process.
func wideLabelled(rng *rand.Rand, n int) *FSP {
	b := NewBuilder(fmt.Sprintf("wide-%d", n))
	b.AddStates(n)
	for s := 0; s < n; s++ {
		b.ArcName(State(s), fmt.Sprintf("l%d", rng.Intn(n/2+1)), State(rng.Intn(n)))
		if rng.Intn(3) == 0 {
			b.ArcName(State(s), TauName, State(rng.Intn(n)))
		}
	}
	return b.MustBuild()
}

// TestSaturateBornSorted: Saturate writes P-hat's adjacency directly,
// without Build's sort, so every row must already be in the stored
// (Act, To) order without duplicates — Dest and HasArc binary-search it —
// and must equal P-hat assembled arc by arc through a Builder from one
// WeakDest per state and observable action of the whole alphabet (the
// former Saturate loop), over small and wide alphabets.
func TestSaturateBornSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var corpus []*FSP
	for i := 0; i < 200; i++ {
		corpus = append(corpus, randomInterned(rng, rng.Int63(), false))
	}
	for _, n := range []int{2, 9, 64, 65, 300} {
		corpus = append(corpus, wideLabelled(rng, n))
	}
	for i, f := range corpus {
		sat, eps, err := Saturate(f)
		if err != nil {
			t.Fatal(err)
		}
		clo := TauClosure(f)
		b := NewBuilderWith("", sat.Alphabet(), sat.Vars())
		b.AddStates(f.NumStates())
		for s := State(0); int(s) < f.NumStates(); s++ {
			for _, to := range clo.Of(s) {
				b.Arc(s, eps, to)
			}
			for _, sigma := range f.Alphabet().Observable() {
				for _, d := range WeakDest(f, clo, s, sigma) {
					b.Arc(s, sigma, d)
				}
			}
		}
		want := b.MustBuild()
		total := 0
		for s := State(0); int(s) < f.NumStates(); s++ {
			if !strictlySorted(sat.Arcs(s)) {
				t.Fatalf("case %d: state %d arcs not strictly (Act, To)-sorted: %v", i, s, sat.Arcs(s))
			}
			if !reflect.DeepEqual(sat.Arcs(s), want.Arcs(s)) {
				t.Fatalf("case %d: state %d arcs %v, want %v", i, s, sat.Arcs(s), want.Arcs(s))
			}
			if sat.Ext(s) != f.Ext(s) {
				t.Fatalf("case %d: state %d extension changed", i, s)
			}
			total += len(sat.Arcs(s))
		}
		if sat.NumTransitions() != total || sat.Start() != f.Start() {
			t.Fatalf("case %d: %d transitions (rows hold %d), start %d (want %d)",
				i, sat.NumTransitions(), total, sat.Start(), f.Start())
		}
	}
}

func TestSaturateRejectsEpsilonCollision(t *testing.T) {
	b := NewBuilder("")
	b.AddStates(2)
	b.ArcName(0, EpsilonName, 1)
	f := b.MustBuild()
	if _, _, err := Saturate(f); err == nil {
		t.Error("expected error for alphabet containing the epsilon name")
	}
}

// TestClosureSubsetRows: the exported subset-row helper OrClosureInto
// agrees with the materialized closure sets — it is the substrate of
// internal/otf's determinized spec side.
func TestClosureSubsetRows(t *testing.T) {
	b := NewBuilder("rows")
	b.AddStates(70) // spans two words
	b.ArcName(0, TauName, 1)
	b.ArcName(1, TauName, 65)
	b.ArcName(65, TauName, 65) // self-loop: dropped by the closure rows
	b.ArcName(2, "a", 3)
	f := b.MustBuild()
	clo := TauClosure(f)
	row := make([]uint64, 2)
	clo.OrClosureInto(row, 0)
	clo.OrClosureInto(row, 2) // singleton (nil-row) representation
	want := map[State]bool{0: true, 1: true, 65: true, 2: true}
	var members []State
	for i, w := range row {
		for bit := 0; bit < 64; bit++ {
			if w&(1<<bit) != 0 {
				members = append(members, State(i*64+bit))
			}
		}
	}
	if len(members) != len(want) {
		t.Fatalf("row members %v, want the union of closures {0,1,65} ∪ {2}", members)
	}
	for _, m := range members {
		if !want[m] {
			t.Errorf("unexpected member %d", m)
		}
	}
}
