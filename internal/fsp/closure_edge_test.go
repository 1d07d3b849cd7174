package fsp

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// Edge cases for the bitset tau-closure: degenerate processes, tau
// self-loops and cycles, empty-set queries, and the epsilon action of a
// saturated FSP. A randomized comparison against a map-based reference
// implementation guards the word-packed representation itself.

func TestBitRow(t *testing.T) {
	r := newBitRow(130)
	for _, s := range []State{0, 63, 64, 129} {
		if r.has(s) {
			t.Errorf("fresh row has %d", s)
		}
		r.set(s)
		if !r.has(s) {
			t.Errorf("row lost %d", s)
		}
	}
	if got := r.count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if got := r.states(); !reflect.DeepEqual(got, []State{0, 63, 64, 129}) {
		t.Errorf("states = %v", got)
	}
	o := newBitRow(130)
	o.set(1)
	o.set(64)
	r.or(o)
	if got := r.states(); !reflect.DeepEqual(got, []State{0, 1, 63, 64, 129}) {
		t.Errorf("after or, states = %v", got)
	}
	clear(r)
	if r.count() != 0 {
		t.Errorf("clear left %d members", r.count())
	}
}

func TestTauClosureSingleStateNoArcs(t *testing.T) {
	b := NewBuilder("empty")
	b.AddState()
	f := b.MustBuild()
	clo := TauClosure(f)
	if got := clo.Of(0); !reflect.DeepEqual(got, []State{0}) {
		t.Errorf("closure(0) = %v, want [0] (reflexive)", got)
	}
	sat, eps, err := Saturate(f)
	if err != nil {
		t.Fatalf("Saturate: %v", err)
	}
	if got := sat.Dest(0, eps); !reflect.DeepEqual(got, []State{0}) {
		t.Errorf("sat eps arcs = %v, want the reflexive self-loop", got)
	}
}

func TestTauClosureNoTauArcs(t *testing.T) {
	b := NewBuilder("observable")
	b.AddStates(3)
	b.ArcName(0, "a", 1)
	b.ArcName(1, "b", 2)
	f := b.MustBuild()
	clo := TauClosure(f)
	for s := 0; s < 3; s++ {
		if got := clo.Of(State(s)); !reflect.DeepEqual(got, []State{State(s)}) {
			t.Errorf("closure(%d) = %v, want identity", s, got)
		}
	}
}

func TestTauClosureSelfLoop(t *testing.T) {
	// A tau self-loop adds nothing beyond reflexivity but must not hang
	// or duplicate members.
	b := NewBuilder("selfloop")
	b.AddStates(2)
	b.ArcName(0, TauName, 0)
	b.ArcName(0, TauName, 1)
	b.ArcName(1, TauName, 1)
	f := b.MustBuild()
	clo := TauClosure(f)
	if got := clo.Of(0); !reflect.DeepEqual(got, []State{0, 1}) {
		t.Errorf("closure(0) = %v, want [0 1]", got)
	}
	if got := clo.Of(1); !reflect.DeepEqual(got, []State{1}) {
		t.Errorf("closure(1) = %v, want [1]", got)
	}
}

func TestTauClosureTwoCycles(t *testing.T) {
	// Two tau cycles joined by a bridge: 0<->1, 2<->3, 1 --tau--> 2. The
	// memoized-row BFS must still see through the forward bridge.
	b := NewBuilder("cycles")
	b.AddStates(4)
	b.ArcName(0, TauName, 1)
	b.ArcName(1, TauName, 0)
	b.ArcName(2, TauName, 3)
	b.ArcName(3, TauName, 2)
	b.ArcName(1, TauName, 2)
	f := b.MustBuild()
	clo := TauClosure(f)
	want := [][]State{
		{0, 1, 2, 3},
		{0, 1, 2, 3},
		{2, 3},
		{2, 3},
	}
	for s, w := range want {
		if got := clo.Of(State(s)); !reflect.DeepEqual(got, w) {
			t.Errorf("closure(%d) = %v, want %v", s, got, w)
		}
	}
}

func TestExpandSetEmpty(t *testing.T) {
	f := buildTauChain(t)
	clo := TauClosure(f)
	if got := clo.ExpandSet(nil); len(got) != 0 {
		t.Errorf("ExpandSet(nil) = %v, want empty", got)
	}
	if got := clo.ExpandSet([]State{}); len(got) != 0 {
		t.Errorf("ExpandSet([]) = %v, want empty", got)
	}
}

func TestWeakDestSetEmpty(t *testing.T) {
	f := buildTauChain(t)
	clo := TauClosure(f)
	a, _ := f.Alphabet().Lookup("a")
	if got := WeakDestSet(f, clo, nil, a); len(got) != 0 {
		t.Errorf("WeakDestSet(empty) = %v, want empty", got)
	}
}

func TestWeakDestOnEpsilonAction(t *testing.T) {
	// On the saturated FSP, epsilon is an ordinary action whose weak
	// derivatives are exactly the original tau-closure: the saturated
	// process has no taus, so closure-eps-closure collapses to the eps
	// arcs themselves.
	f := buildTauChain(t)
	sat, eps, err := Saturate(f)
	if err != nil {
		t.Fatal(err)
	}
	satClo := TauClosure(sat)
	origClo := TauClosure(f)
	for s := 0; s < f.NumStates(); s++ {
		got := WeakDest(sat, satClo, State(s), eps)
		if want := origClo.Of(State(s)); !reflect.DeepEqual(got, want) {
			t.Errorf("WeakDest(sat, %d, eps) = %v, want %v", s, got, want)
		}
	}
}

// referenceClosure is the naive map-based tau-closure the bitset version
// replaced; it anchors the randomized comparison below.
func referenceClosure(f *FSP, s State) []State {
	seen := map[State]struct{}{s: {}}
	stack := []State{s}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, t := range f.Dest(p, Tau) {
			if _, ok := seen[t]; !ok {
				seen[t] = struct{}{}
				stack = append(stack, t)
			}
		}
	}
	out := make([]State, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestTauClosureMatchesReferenceOnRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(80)
		b := NewBuilder("rand")
		b.AddStates(n)
		tau := b.Action(TauName)
		a := b.Action("a")
		for i := 0; i < 3*n; i++ {
			act := a
			if rng.Intn(2) == 0 {
				act = tau
			}
			b.Arc(State(rng.Intn(n)), act, State(rng.Intn(n)))
		}
		f := b.MustBuild()
		clo := TauClosure(f)
		for s := 0; s < n; s++ {
			want := referenceClosure(f, State(s))
			if got := clo.Of(State(s)); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d: closure(%d) = %v, want %v", trial, s, got, want)
			}
		}
		// Spot-check WeakDest against the definitional expansion.
		s := State(rng.Intn(n))
		want := map[State]struct{}{}
		for _, p := range clo.Of(s) {
			for _, q := range f.Dest(p, a) {
				for _, r := range clo.Of(q) {
					want[r] = struct{}{}
				}
			}
		}
		got := WeakDest(f, clo, s, a)
		if len(got) != len(want) {
			t.Fatalf("trial %d: WeakDest size %d, want %d", trial, len(got), len(want))
		}
		for _, r := range got {
			if _, ok := want[r]; !ok {
				t.Fatalf("trial %d: WeakDest has stray state %d", trial, r)
			}
		}
	}
}
