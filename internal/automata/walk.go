package automata

import (
	"context"
	"math/bits"
	"slices"

	"ccs/internal/hashcons"
	"ccs/internal/lts"
)

// Subsets is the subset construction of one automaton, built on demand.
// A subset is a bitset row over the automaton's states, hash-consed into a
// dense id; its successor under each symbol and the caller's observation
// of it are computed once per id. The empty subset is interned like any
// other, the first time some step reaches it.
//
// One Subsets serves any number of walks, and both sides of one walk, that
// step the same automaton and observe it the same way. It is not safe for
// concurrent use.
type Subsets[O any] struct {
	fwdStart, fwdLabel, fwdTo []int32
	states, symbols, words    int

	rows    *hashcons.Table[uint64]
	next    []int32 // next[id*symbols+sym], -1 until id is expanded
	obs     []O
	observe func(members []int32) O
	empty   int32 // id of the empty subset, -1 until a step reaches it

	scratch []uint64 // one row per symbol, for expand
	members []int32
}

// NewSubsets returns the subset construction over arcs: label l of the
// index is symbol l. observe computes what a walk judges about a subset
// from its members (increasing state numbers, a buffer reused between
// calls).
func NewSubsets[O any](arcs *lts.Index, observe func(members []int32) O) *Subsets[O] {
	start, label, to := arcs.Fwd()
	return newSubsets(arcs.N(), arcs.NumLabels(), start, label, to, observe)
}

// sizeHint caps the number of subsets, and of pairs, that a subset
// construction and a walk reserve room for before their first growth.
const sizeHint = 256

// newSubsets is NewSubsets over a forward CSR: the arcs of state s are
// (label[j], to[j]) for start[s] <= j < start[s+1]. Its tables start
// sized for one subset per state, up to sizeHint subsets, so a walk over
// a small automaton grows none of them and a large one does not reserve
// states² bits up front.
func newSubsets[O any](states, symbols int, start, label, to []int32, observe func(members []int32) O) *Subsets[O] {
	words := (states + 63) / 64
	hint := min(states, sizeHint)
	return &Subsets[O]{
		fwdStart: start, fwdLabel: label, fwdTo: to,
		states: states, symbols: symbols, words: words,
		rows:    hashcons.New[uint64](words, hint),
		next:    make([]int32, 0, hint*symbols),
		obs:     make([]O, 0, hint),
		observe: observe,
		empty:   -1,
		scratch: make([]uint64, symbols*words),
		members: make([]int32, 0, states),
	}
}

// Intern returns the id of the subset of s with the given members (state
// numbers of any int32 type), a walk's root.
func Intern[O any, S ~int32](s *Subsets[O], members []S) int32 {
	row := make([]uint64, s.words)
	for _, m := range members {
		row[m>>6] |= 1 << (m & 63)
	}
	return s.intern(row)
}

func (s *Subsets[O]) intern(row []uint64) int32 {
	id, fresh := s.rows.Intern(row)
	if !fresh {
		return id
	}
	s.members = s.members[:0]
	for i, w := range row {
		for ; w != 0; w &= w - 1 {
			s.members = append(s.members, int32(i<<6+bits.TrailingZeros64(w)))
		}
	}
	s.obs = append(s.obs, s.observe(s.members))
	succ := int32(-1)
	if len(s.members) == 0 {
		s.empty, succ = id, id
	}
	for range s.symbols {
		s.next = append(s.next, succ)
	}
	return id
}

// expand computes the successors of subset id under every symbol: one
// pass over its members' arcs sets the target bits of each symbol's row.
func (s *Subsets[O]) expand(id int32) {
	clear(s.scratch)
	for i, w := range s.rows.Key(id) {
		for ; w != 0; w &= w - 1 {
			m := int32(i<<6 + bits.TrailingZeros64(w))
			for j := s.fwdStart[m]; j < s.fwdStart[m+1]; j++ {
				t := s.fwdTo[j]
				s.scratch[int(s.fwdLabel[j])*s.words+int(t>>6)] |= 1 << (t & 63)
			}
		}
	}
	for sym := range s.symbols {
		// intern copies the row, so the scratch is free for the next
		// symbol; it may also grow s.next, so it runs before the store.
		succ := s.intern(s.scratch[sym*s.words : (sym+1)*s.words])
		s.next[int(id)*s.symbols+sym] = succ
	}
}

// Next returns the id of the successor of subset id under sym.
func (s *Subsets[O]) Next(id int32, sym int) int32 {
	if s.next[int(id)*s.symbols+sym] < 0 {
		s.expand(id)
	}
	return s.next[int(id)*s.symbols+sym]
}

// Observation returns the observation of subset id.
func (s *Subsets[O]) Observation(id int32) O { return s.obs[id] }

// IsEmpty reports whether id is the empty subset.
func (s *Subsets[O]) IsEmpty(id int32) bool { return id == s.empty }

// Rule says what a step does when it empties a side's subset while the
// other side's stays non-empty. A step that empties both sides of a
// two-sided walk reaches (∅, ∅), which agrees with itself on every
// successor, and is never taken.
type Rule uint8

const (
	// Explore visits the pair and judges it like any other.
	Explore Rule = iota
	// Stop ends the walk: the step itself is the mismatch.
	Stop
	// Prune drops the step.
	Prune
)

// Side is one automaton of a walk: its subset construction, the root
// subset's id, and the rule for a step that empties it.
type Side[O any] struct {
	Subsets *Subsets[O]
	Root    int32
	Dead    Rule
}

// Mismatch is where a walk stopped: Word leads from the roots to the pair
// At, one subset id per side. Either At's observations disagree, or Word's
// last symbol emptied a side under the Stop rule (IsEmpty tells which).
type Mismatch struct {
	Word []int
	At   [2]int32
}

// pollEvery is how many pairs a walk visits between context checks, the
// stride the otf game and the product explorer use.
const pollEvery = 256

// Walk is the one synchronized subset construction of the program: it
// decides the PSPACE-complete problems — NFA equivalence, ≈_k (trace
// equivalence included), failure equivalence, completed traces and
// failure refinement. It explores, breadth first, the pairs of subsets
// that one or two automata (over the same symbols) reach on a common
// word, each pair hash-consed into a dense id with a parent link, and
// judges every pair it visits with agree on the two sides' observations
// (a one-sided walk passes its one observation twice). The first pair that fails, or the first step
// that empties a side under Stop, is returned with the shortest word in
// breadth-first order that reaches it; nil means every reachable pair
// agrees. visited counts the pairs interned. Walk polls ctx every
// pollEvery pairs and returns its error once cancelled.
func Walk[O any](ctx context.Context, sides []Side[O], agree func(a, b O) bool) (m *Mismatch, visited int, err error) {
	n := len(sides)
	a, b := sides[0], sides[n-1]
	// Sized for one pair per state of the larger side, up to sizeHint.
	hint := min(max(a.Subsets.states, b.Subsets.states), sizeHint)
	pairs := hashcons.New[int32](n, hint)
	parent := make([]struct{ from, sym int32 }, 1, hint) // of each pair
	parent[0] = struct{ from, sym int32 }{-1, -1}
	key := [2]int32{a.Root, b.Root}
	pairs.Intern(key[:n])

	word := func(p int32, last ...int) []int {
		var w []int
		for ; parent[p].from >= 0; p = parent[p].from {
			w = append(w, int(parent[p].sym))
		}
		slices.Reverse(w)
		return append(w, last...)
	}
	symbols := a.Subsets.symbols
	for head := int32(0); int(head) < pairs.Len(); head++ {
		if head%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, pairs.Len(), err
			}
		}
		k := pairs.Key(head)
		x, y := k[0], k[n-1]
		if agree != nil && !agree(a.Subsets.obs[x], b.Subsets.obs[y]) {
			return &Mismatch{Word: word(head), At: [2]int32{x, y}}, pairs.Len(), nil
		}
		for sym := range symbols {
			nx, ny := a.Subsets.Next(x, sym), b.Subsets.Next(y, sym)
			deadX, deadY := a.Subsets.IsEmpty(nx), b.Subsets.IsEmpty(ny)
			rule := Explore
			switch {
			case n == 2 && deadX && deadY:
				continue
			case deadX:
				rule = a.Dead
			case deadY:
				rule = b.Dead
			}
			switch rule {
			case Prune:
				continue
			case Stop:
				return &Mismatch{Word: word(head, sym), At: [2]int32{nx, ny}}, pairs.Len(), nil
			}
			key = [2]int32{nx, ny}
			if _, fresh := pairs.Intern(key[:n]); fresh {
				parent = append(parent, struct{ from, sym int32 }{head, int32(sym)})
			}
		}
	}
	return nil, pairs.Len(), nil
}
