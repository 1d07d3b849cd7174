package failures

import (
	"context"

	"ccs/internal/automata"
	"ccs/internal/fsp"
)

// Completed-trace equivalence: two restricted processes are equivalent when
// they have the same traces AND the same completed traces — traces that can
// end in a state refusing everything. In failure terms a completed trace is
// exactly a failure (s, Sigma), so this notion sits strictly between ≈_1
// and ≡ in the linear-time spectrum the paper's Proposition 2.2.3 samples:
//
//	≡  ⊆  completed-trace  ⊆  ≈_1
//
// (aa vs aa+a separates completed-trace from ≈_1; a+ab vs a+ab+a·(b+0)-
// style pairs with equal deadlock traces but different intermediate
// refusals separate ≡ from completed-trace.)

// CompletedTraceEquivalent decides completed-trace equivalence of the
// start states of two restricted processes by the subset-pair walk, which
// compares, per trace, (i) extendability per action and (ii) the presence
// of a fully refusing (dead) derivative.
func CompletedTraceEquivalent(f, g *fsp.FSP) (bool, *Witness, error) {
	eq, w, _, err := completedTraceEquivalent(f, f.Start(), g, g.Start())
	return eq, w, err
}

// completedTraceEquivalent decides completed-trace equivalence of states
// p of f and q of g, and counts the subset pairs visited.
func completedTraceEquivalent(f *fsp.FSP, p fsp.State, g *fsp.FSP, q fsp.State) (bool, *Witness, int, error) {
	w, at, visited, err := pairWalk(context.Background(), f, p, g, q, (*semantics).deadMembers,
		[2]automata.Rule{automata.Stop, automata.Stop}, func(a, b bool) bool { return a == b })
	if at != nil {
		// Completed here on one side only: a derivative refusing all of
		// Sigma.
		w.Failure.Refusal = allOf(w.Alphabet.NumObservable())
		w.InFirst = at[0]
	}
	return w == nil && err == nil, w, visited, err
}

// deadMembers is sem's subset construction observing whether a subset
// holds a derivative that refuses every action.
func (sem *semantics) deadMembers() *automata.Subsets[bool] {
	return automata.NewSubsets(sem.idx, func(set []int32) bool {
		for _, s := range set {
			if sem.weakInitials[s] == 0 {
				return true
			}
		}
		return false
	})
}
