// Package automata provides the classical finite-automata substrate that the
// paper builds on (Hopcroft & Ullman 1979): NFAs and the program's one
// subset construction. Walk explores, breadth first, the pairs of subsets
// that one or two automata reach on a common word; subsets are bitset rows
// and pairs are subset ids, both hash-consed into dense ids, and each
// caller supplies only what it observes of a subset and what a step that
// empties a side means. Here Walk decides NFA language equivalence, the
// problem whose PSPACE-completeness (Stockmeyer & Meyer 1973) drives the
// paper's lower bounds; packages kequiv and failures run it for ≈_k (trace
// equivalence included), failure equivalence, completed traces and failure
// refinement.
//
// Automata here are epsilon-free: callers eliminate tau moves with the fsp
// package's closure utilities before converting.
package automata

import (
	"fmt"
	"sort"
)

// NFA is a nondeterministic finite automaton over a dense symbol alphabet
// 0..NumSymbols-1 without epsilon moves.
type NFA struct {
	numStates  int
	numSymbols int
	start      int32
	accept     []bool
	delta      [][][]int32 // delta[state][symbol] sorted target list
}

// NewNFA returns an empty NFA with the given shape. All states start
// non-accepting.
func NewNFA(states, symbols int, start int32) (*NFA, error) {
	if states <= 0 {
		return nil, fmt.Errorf("automata: states = %d, want > 0", states)
	}
	if symbols < 0 {
		return nil, fmt.Errorf("automata: symbols = %d, want >= 0", symbols)
	}
	if start < 0 || int(start) >= states {
		return nil, fmt.Errorf("automata: start %d out of range", start)
	}
	delta := make([][][]int32, states)
	for i := range delta {
		delta[i] = make([][]int32, symbols)
	}
	return &NFA{
		numStates:  states,
		numSymbols: symbols,
		start:      start,
		accept:     make([]bool, states),
		delta:      delta,
	}, nil
}

// AddArc inserts the transition (from, sym, to). Duplicates are ignored.
func (n *NFA) AddArc(from int32, sym int, to int32) error {
	if from < 0 || int(from) >= n.numStates || to < 0 || int(to) >= n.numStates {
		return fmt.Errorf("automata: arc (%d,%d,%d) out of range", from, sym, to)
	}
	if sym < 0 || sym >= n.numSymbols {
		return fmt.Errorf("automata: symbol %d out of range", sym)
	}
	lst := n.delta[from][sym]
	i := sort.Search(len(lst), func(i int) bool { return lst[i] >= to })
	if i < len(lst) && lst[i] == to {
		return nil
	}
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = to
	n.delta[from][sym] = lst
	return nil
}

// SetAccept marks state s accepting or not.
func (n *NFA) SetAccept(s int32, accepting bool) {
	n.accept[s] = accepting
}

// NumArcs counts the transitions.
func (n *NFA) NumArcs() int {
	total := 0
	for _, row := range n.delta {
		for _, lst := range row {
			total += len(lst)
		}
	}
	return total
}

// anyAccepting reports whether the set contains an accepting state.
func (n *NFA) anyAccepting(set []int32) bool {
	for _, s := range set {
		if n.accept[s] {
			return true
		}
	}
	return false
}

// subsets returns the on-demand subset construction of n, observing
// acceptance.
func (n *NFA) subsets() *Subsets[bool] {
	start := make([]int32, n.numStates+1)
	label, to := make([]int32, 0, n.NumArcs()), make([]int32, 0, n.NumArcs())
	for s, row := range n.delta {
		for sym, lst := range row {
			for _, t := range lst {
				label, to = append(label, int32(sym)), append(to, t)
			}
		}
		start[s+1] = int32(len(to))
	}
	return newSubsets(n.numStates, n.numSymbols, start, label, to, n.anyAccepting)
}
