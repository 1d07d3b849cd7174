package automata

import (
	"context"
	"fmt"
)

// unionFind is a standard disjoint-set forest with path halving.
type unionFind struct {
	parent []int32
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

func (uf *unionFind) find(x int32) int32 {
	for uf.parent[x] != x {
		uf.parent[x] = uf.parent[uf.parent[x]]
		x = uf.parent[x]
	}
	return x
}

// union merges the sets of a and b; it reports whether they were distinct.
func (uf *unionFind) union(a, b int32) bool {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return false
	}
	uf.parent[ra] = rb
	return true
}

// EquivalentDFA decides L(a) = L(b) with the UNION-FIND procedure of Aho,
// Hopcroft & Ullman (1974, §4.8): merge the start states, then propagate
// merges along matching symbols; the languages differ iff two states with
// different acceptance end up merged. Runs in O(N sigma alpha(N)).
func EquivalentDFA(a, b *DFA) (bool, error) {
	if a.numSymbols != b.numSymbols {
		return false, fmt.Errorf("automata: alphabet sizes differ: %d vs %d", a.numSymbols, b.numSymbols)
	}
	off := int32(a.numStates)
	uf := newUnionFind(a.numStates + b.numStates)
	accept := func(s int32) bool {
		if s < off {
			return a.accept[s]
		}
		return b.accept[s-off]
	}
	next := func(s int32, sym int) int32 {
		if s < off {
			return a.delta[s][sym]
		}
		return b.delta[s-off][sym] + off
	}

	type pair struct{ x, y int32 }
	stack := []pair{{a.start, b.start + off}}
	uf.union(a.start, b.start+off)
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if accept(p.x) != accept(p.y) {
			return false, nil
		}
		for sym := 0; sym < a.numSymbols; sym++ {
			nx, ny := next(p.x, sym), next(p.y, sym)
			if uf.union(nx, ny) {
				stack = append(stack, pair{nx, ny})
			}
		}
	}
	return true, nil
}

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

// Universal decides L(n) = Sigma* by on-the-fly determinization: the
// language is universal iff every reachable subset contains an accepting
// state. Returns the shortest rejected word as witness when not universal.
func Universal(n *NFA) (bool, []int) {
	s := n.subsets()
	m, _, _ := Walk(context.Background(), []Side[bool]{{Subsets: s, Root: Intern(s, []int32{n.start})}},
		func(accepting, _ bool) bool { return accepting })
	if m == nil {
		return true, nil
	}
	return false, m.Word
}
