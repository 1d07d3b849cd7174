package fsp

import (
	"errors"
	"fmt"
	"slices"
)

// Builder incrementally constructs an FSP. The zero value is not usable;
// call NewBuilder. Builders are single-use: after Build succeeds the builder
// must not be reused.
type Builder struct {
	name     string
	alphabet *Alphabet
	vars     *VarTable
	start    State
	startSet bool
	adj      [][]Arc
	ext      []VarSet
	numTrans int
	err      error
}

// NewBuilder returns a builder with a fresh alphabet and variable table.
func NewBuilder(name string) *Builder {
	return &Builder{
		name:     name,
		alphabet: NewAlphabet(),
		vars:     &VarTable{index: make(map[string]VarID)},
	}
}

// NewBuilderWith returns a builder that shares the given alphabet and
// variable table. The paper's equivalences are defined only between FSPs
// with identical Sigma and V; sharing the tables guarantees that.
func NewBuilderWith(name string, alphabet *Alphabet, vars *VarTable) *Builder {
	return &Builder{name: name, alphabet: alphabet, vars: vars}
}

// AddState appends a fresh state with empty extension and returns it.
func (b *Builder) AddState() State {
	s := State(len(b.adj))
	b.adj = append(b.adj, nil)
	b.ext = append(b.ext, EmptyVars)
	return s
}

// AddStates appends n fresh states and returns the first of them.
func (b *Builder) AddStates(n int) State {
	first := State(len(b.adj))
	if n > 0 {
		b.adj = append(b.adj, make([][]Arc, n)...)
		b.ext = append(b.ext, make([]VarSet, n)...)
	}
	return first
}

// SetStart designates the start state p0.
func (b *Builder) SetStart(s State) *Builder {
	if !b.valid(s) {
		return b
	}
	b.start = s
	b.startSet = true
	return b
}

// Arc adds a transition (from, act, to). Duplicate transitions are kept;
// Build deduplicates them (Delta is a relation, i.e. a set).
func (b *Builder) Arc(from State, act Action, to State) *Builder {
	if !b.valid(from) || !b.valid(to) {
		return b
	}
	if int(act) < 0 || int(act) >= b.alphabet.Len() {
		b.fail(fmt.Errorf("action %d not in alphabet", act))
		return b
	}
	b.adj[from] = append(b.adj[from], Arc{Act: act, To: to})
	b.numTrans++
	return b
}

// Row replaces the arcs of s by arcs and keeps the slice, so a caller that
// builds rows at their exact size in the (Act, To) order Build stores
// hands them over without a copy or a sort.
func (b *Builder) Row(s State, arcs []Arc) *Builder {
	if !b.valid(s) {
		return b
	}
	for _, a := range arcs {
		if !b.valid(a.To) {
			return b
		}
		if int(a.Act) < 0 || int(a.Act) >= b.alphabet.Len() {
			b.fail(fmt.Errorf("action %d not in alphabet", a.Act))
			return b
		}
	}
	b.adj[s] = arcs
	return b
}

// ArcName adds a transition labelled by the named action, interning the
// name into the alphabet if needed. The name "tau" denotes Tau.
func (b *Builder) ArcName(from State, action string, to State) *Builder {
	return b.Arc(from, b.alphabet.Intern(action), to)
}

// Extend adds the named variables to the extension of s.
func (b *Builder) Extend(s State, vars ...string) *Builder {
	if !b.valid(s) {
		return b
	}
	for _, name := range vars {
		id, err := b.vars.Intern(name)
		if err != nil {
			b.fail(err)
			return b
		}
		b.ext[s] = b.ext[s].With(id)
	}
	return b
}

// Accept marks s as accepting in the standard-model sense (extension {x}).
func (b *Builder) Accept(s State) *Builder { return b.Extend(s, StandardVar) }

// Action interns an action name and returns its index, for callers that
// want to pre-intern the alphabet before adding arcs.
func (b *Builder) Action(name string) Action { return b.alphabet.Intern(name) }

// ArcSnapshot returns a copy of the arcs added so far from s (duplicates
// included, order of insertion). It lets inductive constructions — like the
// representative FSP of Definition 2.3.1 — copy a state's current arcs onto
// another state while continuing to build.
func (b *Builder) ArcSnapshot(s State) []Arc {
	if !b.valid(s) {
		return nil
	}
	out := make([]Arc, len(b.adj[s]))
	copy(out, b.adj[s])
	return out
}

// Err returns the first error recorded by the fluent methods, if any.
func (b *Builder) Err() error { return b.err }

// Build validates and freezes the FSP. Arcs are deduplicated and sorted.
func (b *Builder) Build() (*FSP, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.adj) == 0 {
		return nil, errors.New("fsp has no states")
	}
	if !b.startSet {
		b.start = 0
	}
	numTrans := 0
	for s := range b.adj {
		arcs := b.adj[s]
		// Parsed interchange text (Format writes arcs in stored order)
		// and copies such as DisjointUnion mostly arrive in (Act, To)
		// order without duplicates; only other rows pay for the sort and
		// the dedup pass (Delta is a set).
		if !strictlySorted(arcs) {
			slices.SortFunc(arcs, cmpArcs)
			arcs = slices.Compact(arcs)
			b.adj[s] = arcs
		}
		numTrans += len(arcs)
	}
	return &FSP{
		name:     b.name,
		alphabet: b.alphabet,
		vars:     b.vars,
		start:    b.start,
		adj:      b.adj,
		ext:      b.ext,
		numTrans: numTrans,
	}, nil
}

// MustBuild is Build for statically known inputs; it panics on error and is
// intended for fixtures and examples.
func (b *Builder) MustBuild() *FSP {
	f, err := b.Build()
	if err != nil {
		panic(err)
	}
	return f
}

// strictlySorted reports whether arcs are in increasing (Act, To) order
// with no duplicates, the form Build stores.
func strictlySorted(arcs []Arc) bool {
	for i := 1; i < len(arcs); i++ {
		if cmpArcs(arcs[i-1], arcs[i]) >= 0 {
			return false
		}
	}
	return true
}

func (b *Builder) valid(s State) bool {
	if int(s) < 0 || int(s) >= len(b.adj) {
		b.fail(fmt.Errorf("state %d out of range [0,%d)", s, len(b.adj)))
		return false
	}
	return true
}

func (b *Builder) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}
