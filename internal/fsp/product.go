package fsp

import (
	"fmt"
	"strings"
)

// This file implements the "direct product of states" construction that
// Section 6 of the paper proposes for extending star expressions with an
// intersection operator: Intersect synchronizes on every observable
// action. CCS parallel composition and restriction are networks of
// processes, built by internal/compose.

// CoName returns the complementary action name in the convention used by
// CCS composition: "a" <-> "a'". Co-names model Milner's overbarred
// actions.
func CoName(name string) string {
	if strings.HasSuffix(name, "'") {
		return strings.TrimSuffix(name, "'")
	}
	return name + "'"
}

// pairIndex enumerates reachable product states on the fly.
type pairIndex struct {
	ids   map[[2]State]State
	order [][2]State
}

func newPairIndex() *pairIndex {
	return &pairIndex{ids: map[[2]State]State{}}
}

func (pi *pairIndex) intern(p, q State) (State, bool) {
	key := [2]State{p, q}
	if id, ok := pi.ids[key]; ok {
		return id, false
	}
	id := State(len(pi.order))
	pi.ids[key] = id
	pi.order = append(pi.order, key)
	return id, true
}

// Intersect returns the synchronized product of f and g: the product state
// (p, q) can perform sigma iff both components can, moving jointly; tau
// moves of either component interleave independently. The extension of
// (p, q) is E(p) ∩ E(q), so in the standard model the product accepts the
// intersection of the languages — the "new semantics" for an intersection
// operator contemplated in Section 6. Only states reachable from the
// product start are constructed.
func Intersect(f, g *FSP) (*FSP, error) {
	alpha := f.alphabet.Clone()
	vars := f.vars.Clone()
	b := NewBuilderWith(fmt.Sprintf("(%s&%s)", orFSP(f.name), orFSP(g.name)), alpha, vars)

	// Action translation g -> f by name (interning unseen names).
	gAct := make([]Action, g.alphabet.Len())
	for i := 0; i < g.alphabet.Len(); i++ {
		gAct[i] = alpha.Intern(g.alphabet.Name(Action(i)))
	}

	pi := newPairIndex()
	start, _ := pi.intern(f.start, g.start)
	b.AddState()
	b.SetStart(start)

	for head := 0; head < len(pi.order); head++ {
		pq := pi.order[head]
		p, q := pq[0], pq[1]
		cur := State(head)

		emit := func(act Action, np, nq State) {
			id, fresh := pi.intern(np, nq)
			if fresh {
				b.AddState()
			}
			b.Arc(cur, act, id)
		}

		// Joint observable moves.
		for _, fa := range f.adj[p] {
			if fa.Act == Tau {
				emit(Tau, fa.To, q)
				continue
			}
			name := f.alphabet.Name(fa.Act)
			ga, ok := g.alphabet.Lookup(name)
			if !ok {
				continue
			}
			for _, to := range g.Dest(q, ga) {
				emit(fa.Act, fa.To, to)
			}
		}
		// g's tau moves interleave.
		for _, to := range g.Dest(q, Tau) {
			emit(Tau, p, to)
		}

		// Extension: intersection by name.
		for _, id := range f.ext[p].IDs() {
			name := f.vars.Name(id)
			gid, ok := g.vars.Lookup(name)
			if ok && g.ext[q].Has(gid) {
				b.Extend(cur, name)
			}
		}
	}
	out, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("intersect: %w", err)
	}
	return out, nil
}
