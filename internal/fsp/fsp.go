// Package fsp implements the finite state process (FSP) model of
// Kanellakis & Smolka, "CCS Expressions, Finite State Processes, and Three
// Problems of Equivalence" (Definition 2.1.1).
//
// An FSP is a sextuple (K, p0, Sigma, Delta, V, E): a finite set of states K
// with a start state p0, a transition relation Delta over K x (Sigma u
// {tau}) x K where tau is the unobservable action, and an extension relation
// E assigning each state a set of variables from V. Extensions generalize
// NFA acceptance: in the standard model V = {x} and a state is accepting iff
// its extension is {x}.
//
// The package provides the model itself, a builder, the Table I model
// hierarchy classifier, tau-closure and weak saturation (the ==s=> derivative
// relation of Section 2.1), a textual interchange format, and DOT export.
// Equivalence checking lives in the core, kequiv and failures packages.
//
// The interchange parsers (ParseString, and ParseAUTString for Aldebaran
// text) walk the source once, in place, with no limit on line length.
// Every name a parsed FSP keeps is a copy, so a cached process never keeps
// its source text alive, and a declared state count above MaxStates is a
// line-numbered error.
package fsp

import (
	"cmp"
	"fmt"
	"sort"
)

// State identifies a state of an FSP as a dense index in [0, NumStates).
type State int32

// None is the absent state, used by lookups that can fail.
const None State = -1

// Arc is a single labelled transition out of a state.
type Arc struct {
	Act Action
	To  State
}

// Transition is a full (from, action, to) element of the transition relation
// Delta, used by iteration and interchange code.
type Transition struct {
	From State
	Act  Action
	To   State
}

// FSP is an immutable finite state process. Construct one with a Builder,
// Parse, or one of the combinators; the accessor methods never mutate.
type FSP struct {
	name     string
	alphabet *Alphabet
	vars     *VarTable
	start    State
	adj      [][]Arc // adj[s] sorted by (Act, To)
	ext      []VarSet
	numTrans int
}

// Name returns the optional human-readable name of the process.
func (f *FSP) Name() string { return f.name }

// Alphabet returns the action alphabet (shared, do not mutate).
func (f *FSP) Alphabet() *Alphabet { return f.alphabet }

// Vars returns the variable table (shared, do not mutate).
func (f *FSP) Vars() *VarTable { return f.vars }

// Start returns the start state p0.
func (f *FSP) Start() State { return f.start }

// NumStates returns |K|.
func (f *FSP) NumStates() int { return len(f.adj) }

// NumTransitions returns |Delta|.
func (f *FSP) NumTransitions() int { return f.numTrans }

// Ext returns the extension E(s) of state s.
func (f *FSP) Ext(s State) VarSet { return f.ext[s] }

// Arcs returns the outgoing transitions of s, sorted by (action, target).
// The returned slice is shared; callers must not modify it.
func (f *FSP) Arcs(s State) []Arc { return f.adj[s] }

// Dest returns the destinations Delta(s, act) in increasing state order.
func (f *FSP) Dest(s State, act Action) []State {
	arcs := f.adj[s]
	lo, hi := f.destSpan(s, act)
	var out []State
	for i := lo; i < hi; i++ {
		out = append(out, arcs[i].To)
	}
	return out
}

// destSpan returns the half-open index range [lo, hi) of f.adj[s] holding
// the arcs labelled act, letting hot paths iterate destinations without
// allocating the slice Dest returns.
func (f *FSP) destSpan(s State, act Action) (int, int) {
	arcs := f.adj[s]
	lo := sort.Search(len(arcs), func(i int) bool { return arcs[i].Act >= act })
	hi := lo
	for hi < len(arcs) && arcs[hi].Act == act {
		hi++
	}
	return lo, hi
}

// HasArc reports whether (s, act, to) is in Delta.
func (f *FSP) HasArc(s State, act Action, to State) bool {
	arcs := f.adj[s]
	i := sort.Search(len(arcs), func(i int) bool {
		if arcs[i].Act != act {
			return arcs[i].Act > act
		}
		return arcs[i].To >= to
	})
	return i < len(arcs) && arcs[i].Act == act && arcs[i].To == to
}

// HasAction reports whether s has at least one transition labelled act.
func (f *FSP) HasAction(s State, act Action) bool {
	arcs := f.adj[s]
	lo := sort.Search(len(arcs), func(i int) bool { return arcs[i].Act >= act })
	return lo < len(arcs) && arcs[lo].Act == act
}

// Transitions returns all transitions sorted by (from, action, to). The
// slice is freshly allocated.
func (f *FSP) Transitions() []Transition {
	out := make([]Transition, 0, f.numTrans)
	for s := range f.adj {
		for _, a := range f.adj[s] {
			out = append(out, Transition{From: State(s), Act: a.Act, To: a.To})
		}
	}
	return out
}

// Accepting reports whether s is accepting in the standard-model sense,
// i.e. whether the variable x belongs to E(s).
func (f *FSP) Accepting(s State) bool {
	id, ok := f.vars.Lookup(StandardVar)
	return ok && f.ext[s].Has(id)
}

// Reachable returns the set of states reachable from the start state
// (following all transitions including tau) as a boolean mask.
func (f *FSP) Reachable() []bool {
	seen := make([]bool, len(f.adj))
	stack := []State{f.start}
	seen[f.start] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range f.adj[s] {
			if !seen[a.To] {
				seen[a.To] = true
				stack = append(stack, a.To)
			}
		}
	}
	return seen
}

// String returns a compact single-line summary.
func (f *FSP) String() string {
	name := f.name
	if name == "" {
		name = "fsp"
	}
	return fmt.Sprintf("%s(states=%d, trans=%d, start=%d)", name, len(f.adj), f.numTrans, f.start)
}

// cmpArcs is the canonical (Act, To) order used by Dest/HasArc.
func cmpArcs(a, b Arc) int {
	if a.Act != b.Act {
		return cmp.Compare(a.Act, b.Act)
	}
	return cmp.Compare(a.To, b.To)
}
