package kequiv

import (
	"context"
	"fmt"

	"ccs/internal/automata"
	"ccs/internal/fsp"
)

// TraceWitness decides classical language equivalence L(p) = L(q) of the
// start states and, when the languages differ, returns the shortest word
// accepted by exactly one side, rendered with action names. The walk steps
// on the weak arcs of the union of f and g: a derivative subset accepts
// iff some member is accepting (subsets are tau-closed, so this is the
// paper's L(p)).
//
// On the restricted model this is exactly ≈_1 (Proposition 2.2.3b). On
// general FSPs ≈_1 is finer: it also compares the languages of the other
// extension classes (Definition 2.2.1 quantifies over all extensions), so
// use Equivalent(f, g, 1) for the paper's relation and this function when
// a human-readable distinguishing trace is wanted.
func TraceWitness(f, g *fsp.FSP) (equal bool, word []string, err error) {
	u, off, err := fsp.DisjointUnion(f, g)
	if err != nil {
		return false, nil, fmt.Errorf("kequiv: %w", err)
	}
	wg := newWeakGraph(u)
	sub := automata.NewSubsets(wg.idx, func(set []int32) bool {
		for _, s := range set {
			if u.Accepting(fsp.State(s)) {
				return true
			}
		}
		return false
	})
	m, _, _ := automata.Walk(context.Background(), []automata.Side[bool]{
		{Subsets: sub, Root: automata.Intern(sub, wg.clo.Of(f.Start()))},
		{Subsets: sub, Root: automata.Intern(sub, wg.clo.Of(off+g.Start()))},
	}, func(a, b bool) bool { return a == b })
	if m == nil {
		return true, nil, nil
	}
	names := make([]string, len(m.Word))
	for i, sym := range m.Word {
		// Observable symbol i of the walk is action i+1 of the FSP.
		names[i] = u.Alphabet().Name(fsp.Action(sym + 1))
	}
	return false, names, nil
}
