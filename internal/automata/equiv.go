package automata

import (
	"context"
	"fmt"
)

// EquivalentNFA decides L(a) = L(b) by the synchronized on-the-fly subset
// construction (Walk): it explores reachable subset pairs, failing on the
// first pair with mismatched acceptance. The witness word distinguishing
// the languages (shortest via BFS) is returned when they differ. Worst
// case exponential — NFA equivalence is PSPACE-complete (Stockmeyer &
// Meyer 1973), which is exactly the hardness the paper inherits for its
// ≈_k and failure-equivalence lower bounds.
func EquivalentNFA(a, b *NFA) (bool, []int, error) {
	if a.numSymbols != b.numSymbols {
		return false, nil, fmt.Errorf("automata: alphabet sizes differ: %d vs %d", a.numSymbols, b.numSymbols)
	}
	sa, sb := a.subsets(), b.subsets()
	m, _, _ := Walk(context.Background(), []Side[bool]{
		{Subsets: sa, Root: Intern(sa, []int32{a.start})},
		{Subsets: sb, Root: Intern(sb, []int32{b.start})},
	}, func(x, y bool) bool { return x == y })
	if m == nil {
		return true, nil, nil
	}
	return false, m.Word, nil
}
