package automata

import (
	"context"
	"fmt"
)

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

// NumSymbols returns the alphabet size.
func (d *DFA) NumSymbols() int { return d.numSymbols }

// Start returns the start state.
func (d *DFA) Start() int32 { return d.start }

// Accepting reports whether s is accepting.
func (d *DFA) Accepting(s int32) bool { return d.accept[s] }

// Next returns the unique successor of (s, sym).
func (d *DFA) Next(s int32, sym int) int32 { return d.delta[s][sym] }

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
