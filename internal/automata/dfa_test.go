package automata

import (
	"context"
	"fmt"

	"ccs/internal/lts"
	"ccs/internal/partition"
)

// This file keeps the textbook DFA route as a reference for the NFA walk:
// determinization, Hopcroft's O(N log N) DFA minimization (Hopcroft 1971)
// and its Moore baseline, DFA equivalence with UNION-FIND (Aho, Hopcroft
// & Ullman 1974, §4.8), and universality, together with the NFA helpers
// the tests build and run automata with.

// MustNFA is NewNFA for statically known shapes; it panics on error.
func MustNFA(states, symbols int, start int32) *NFA {
	n, err := NewNFA(states, symbols, start)
	if err != nil {
		panic(err)
	}
	return n
}

// step returns the successor set of a state set under sym.
func (n *NFA) step(set []int32, sym int, mark []bool) []int32 {
	var out []int32
	for _, s := range set {
		for _, t := range n.delta[s][sym] {
			if !mark[t] {
				mark[t] = true
				out = append(out, t)
			}
		}
	}
	for _, t := range out {
		mark[t] = false
	}
	return out
}

// AcceptsWord runs the subset simulation on one word.
func (n *NFA) AcceptsWord(word []int) bool {
	set := []int32{n.start}
	mark := make([]bool, n.numStates)
	for _, sym := range word {
		if sym < 0 || sym >= n.numSymbols {
			return false
		}
		set = n.step(set, sym, mark)
		if len(set) == 0 {
			return false
		}
	}
	return n.anyAccepting(set)
}

// DFA is a complete deterministic finite automaton: every state has exactly
// one successor per symbol.
type DFA struct {
	numStates  int
	numSymbols int
	start      int32
	accept     []bool
	delta      [][]int32 // delta[state][symbol]
}

// NewDFA returns a DFA with the given shape whose transitions all initially
// self-loop (state 0 target); callers set them with SetArc.
func NewDFA(states, symbols int, start int32) (*DFA, error) {
	if states <= 0 {
		return nil, fmt.Errorf("automata: states = %d, want > 0", states)
	}
	if start < 0 || int(start) >= states {
		return nil, fmt.Errorf("automata: start %d out of range", start)
	}
	delta := make([][]int32, states)
	for i := range delta {
		delta[i] = make([]int32, symbols)
	}
	return &DFA{
		numStates:  states,
		numSymbols: symbols,
		start:      start,
		accept:     make([]bool, states),
		delta:      delta,
	}, nil
}

// MustDFA is NewDFA for statically known shapes; it panics on error.
func MustDFA(states, symbols int, start int32) *DFA {
	d, err := NewDFA(states, symbols, start)
	if err != nil {
		panic(err)
	}
	return d
}

// SetArc sets the unique transition (from, sym) -> to.
func (d *DFA) SetArc(from int32, sym int, to int32) error {
	if from < 0 || int(from) >= d.numStates || to < 0 || int(to) >= d.numStates {
		return fmt.Errorf("automata: arc (%d,%d,%d) out of range", from, sym, to)
	}
	if sym < 0 || sym >= d.numSymbols {
		return fmt.Errorf("automata: symbol %d out of range", sym)
	}
	d.delta[from][sym] = to
	return nil
}

// SetAccept marks state s accepting or not.
func (d *DFA) SetAccept(s int32, accepting bool) { d.accept[s] = accepting }

// NumStates returns the number of states.
func (d *DFA) NumStates() int { return d.numStates }

// Determinize performs the subset construction, producing a complete DFA
// whose states are the reachable subsets (including the empty "dead"
// subset when some transition is missing), numbered in breadth-first
// order from the start subset.
func Determinize(n *NFA) *DFA {
	s := n.subsets()
	root := Intern(s, []int32{n.start})
	// A one-sided walk without a judge expands every reachable subset and
	// cannot fail.
	Walk(context.Background(), []Side[bool]{{Subsets: s, Root: root}}, nil)
	d := &DFA{
		numStates:  len(s.obs),
		numSymbols: n.numSymbols,
		start:      root,
		accept:     s.obs,
		delta:      make([][]int32, len(s.obs)),
	}
	for id := range d.delta {
		d.delta[id] = s.next[id*n.numSymbols : (id+1)*n.numSymbols : (id+1)*n.numSymbols]
	}
	return d
}

// Reachable returns the set of states reachable from the start.
func (d *DFA) Reachable() []bool {
	seen := make([]bool, d.numStates)
	seen[d.start] = true
	stack := []int32{d.start}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for sym := 0; sym < d.numSymbols; sym++ {
			t := d.delta[s][sym]
			if !seen[t] {
				seen[t] = true
				stack = append(stack, t)
			}
		}
	}
	return seen
}

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

// Minimize returns the minimal complete DFA accepting the same language,
// considering only reachable states. It delegates to the relational coarsest
// partition solver, which on deterministic graphs specializes to Hopcroft's
// O(N log N) "process the smaller half" algorithm (Hopcroft 1971) — the
// technique the paper generalizes in Section 3.
func (d *DFA) Minimize() *DFA {
	return d.minimizeWith(partition.PaigeTarjanIndex)
}

func (d *DFA) minimizeWith(solve func(*lts.Index, []int32) *partition.Partition) *DFA {
	// Restrict to reachable states, renumbering densely.
	reach := d.Reachable()
	remap := make([]int32, d.numStates)
	var live int32
	for s := 0; s < d.numStates; s++ {
		if reach[s] {
			remap[s] = live
			live++
		} else {
			remap[s] = -1
		}
	}

	// The refinement instance is built straight into the CSR kernel:
	// anonymous dense labels (the DFA symbols), initial partition accepting
	// vs non-accepting.
	b := lts.NewBuilder(int(live), d.numSymbols)
	initial := make([]int32, live)
	hasAcc, hasRej := false, false
	for s := 0; s < d.numStates; s++ {
		if reach[s] && d.accept[s] {
			hasAcc = true
		}
		if reach[s] && !d.accept[s] {
			hasRej = true
		}
	}
	for s := 0; s < d.numStates; s++ {
		if !reach[s] {
			continue
		}
		blk := int32(0)
		if hasAcc && hasRej && !d.accept[s] {
			blk = 1
		}
		initial[remap[s]] = blk
		for sym := 0; sym < d.numSymbols; sym++ {
			b.Add(remap[s], int32(sym), remap[d.delta[s][sym]])
		}
	}
	p := solve(b.Build(), initial)

	out, err := NewDFA(p.NumBlocks(), d.numSymbols, p.Block(remap[d.start]))
	if err != nil {
		// p.NumBlocks() >= 1 whenever live >= 1; unreachable in practice.
		panic(err)
	}
	for s := 0; s < d.numStates; s++ {
		if !reach[s] {
			continue
		}
		b := p.Block(remap[s])
		out.accept[b] = d.accept[s]
		for sym := 0; sym < d.numSymbols; sym++ {
			out.delta[b][sym] = p.Block(remap[d.delta[s][sym]])
		}
	}
	return out
}

// moore minimizes with the Lemma 3.2 rounds, Moore's algorithm.
func moore(idx *lts.Index, initial []int32) *partition.Partition {
	p, _ := partition.RefineStepsIndex(idx, initial, -1)
	return p
}
