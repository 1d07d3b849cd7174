package fsp

import "math/bits"

// The weak-derivative set helpers that Saturate and lts.FromWeak used per
// state and observable action before WeakRows, kept as the references
// the closure tests check the rows against.

// ExpandSet returns the union of the tau-closures of the given states,
// sorted and deduplicated.
func (c Closure) ExpandSet(set []State) []State {
	acc := newBitRow(c.n)
	for _, s := range set {
		c.orInto(acc, s)
	}
	return acc.states()
}

// succInto ORs into acc the closures of the sigma-successors of p:
// acc |= ⋃ {closure(q) : p --sigma--> q}.
func (c Closure) succInto(f *FSP, p State, sigma Action, acc bitRow) {
	arcs := f.adj[p]
	lo, hi := f.destSpan(p, sigma)
	for k := lo; k < hi; k++ {
		c.orInto(acc, arcs[k].To)
	}
}

// weakDestRow ORs into acc the closure rows of all sigma-successors of the
// members of src: acc |= ⋃ {closure(q) : p ∈ src, p --sigma--> q}. When src
// is a closure row this is exactly the weak derivative set of Section 2.1.
func (c Closure) weakDestRow(f *FSP, src bitRow, sigma Action, acc bitRow) {
	for i, w := range src {
		base := State(i << 6)
		for w != 0 {
			p := base + State(bits.TrailingZeros64(w))
			w &= w - 1
			c.succInto(f, p, sigma, acc)
		}
	}
}

// weakDestFrom is weakDestRow for a single source state, transparently
// handling the nil-row singleton representation.
func (c Closure) weakDestFrom(f *FSP, from State, sigma Action, acc bitRow) {
	if row := c.rows[from]; row != nil {
		c.weakDestRow(f, row, sigma, acc)
		return
	}
	c.succInto(f, from, sigma, acc)
}

// WeakDest returns the set of sigma-weak-derivatives {q : from ==sigma=> q}
// for a single observable action, computed from a precomputed closure.
func WeakDest(f *FSP, clo Closure, from State, sigma Action) []State {
	acc := newBitRow(clo.n)
	clo.weakDestFrom(f, from, sigma, acc)
	return acc.states()
}

// WeakDestSet is WeakDest lifted to a set of source states.
func WeakDestSet(f *FSP, clo Closure, from []State, sigma Action) []State {
	src := newBitRow(clo.n)
	for _, s := range from {
		clo.orInto(src, s)
	}
	acc := newBitRow(clo.n)
	clo.weakDestRow(f, src, sigma, acc)
	return acc.states()
}

// SDerivatives returns the s-derivatives of from: all states p' such that
// from ==word=> p', where word ranges over observable actions (Section 2.1).
// The empty word yields the tau-closure of from.
func SDerivatives(f *FSP, from State, word []Action) []State {
	clo := TauClosure(f)
	cur := clo.Of(from)
	set := make([]State, len(cur))
	copy(set, cur)
	for _, sigma := range word {
		set = WeakDestSet(f, clo, set, sigma)
		if len(set) == 0 {
			return nil
		}
	}
	return set
}
