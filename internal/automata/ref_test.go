package automata

import (
	"fmt"
	"slices"
)

// This file keeps the hand-written BFS subset walks that preceded Walk —
// determinization, NFA equivalence and universality — as references for
// the differential test. Each keys its visited sets by the bytes of sorted
// state lists; the equivalence and universality walks also return the
// number of nodes they enqueued.

func refKey(set []int32) string {
	buf := make([]byte, 0, len(set)*4)
	for _, s := range set {
		buf = append(buf, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return string(buf)
}

// refStep is step with its result sorted, as refKey needs.
func refStep(n *NFA, set []int32, sym int, mark []bool) []int32 {
	out := n.step(set, sym, mark)
	slices.Sort(out)
	return out
}

func refWord(parent, sym []int, i int) []int {
	var rev []int
	for parent[i] >= 0 {
		rev = append(rev, sym[i])
		i = parent[i]
	}
	slices.Reverse(rev)
	return rev
}

func refDeterminize(n *NFA) *DFA {
	type entry struct {
		set []int32
		id  int32
	}
	ids := map[string]int32{}
	var queue []entry
	intern := func(set []int32) int32 {
		k := refKey(set)
		if id, ok := ids[k]; ok {
			return id
		}
		id := int32(len(ids))
		ids[k] = id
		queue = append(queue, entry{set: set, id: id})
		return id
	}
	mark := make([]bool, n.numStates)
	startID := intern([]int32{n.start})
	var (
		accept []bool
		delta  [][]int32
	)
	for head := 0; head < len(queue); head++ {
		e := queue[head]
		for int(e.id) >= len(accept) {
			accept = append(accept, false)
			delta = append(delta, make([]int32, n.numSymbols))
		}
		accept[e.id] = n.anyAccepting(e.set)
		for sym := 0; sym < n.numSymbols; sym++ {
			delta[e.id][sym] = intern(refStep(n, e.set, sym, mark))
		}
	}
	return &DFA{numStates: len(queue), numSymbols: n.numSymbols, start: startID, accept: accept, delta: delta}
}

func refEquivalentNFA(a, b *NFA) (bool, []int, int, error) {
	if a.numSymbols != b.numSymbols {
		return false, nil, 0, fmt.Errorf("automata: alphabet sizes differ: %d vs %d", a.numSymbols, b.numSymbols)
	}
	var sa, sb [][]int32
	var parent, via []int
	seen := map[string]bool{}
	push := func(x, y []int32, p, sym int) {
		if k := refKey(x) + "|" + refKey(y); !seen[k] {
			seen[k] = true
			sa, sb = append(sa, x), append(sb, y)
			parent, via = append(parent, p), append(via, sym)
		}
	}
	push([]int32{a.start}, []int32{b.start}, -1, 0)
	markA, markB := make([]bool, a.numStates), make([]bool, b.numStates)
	for head := 0; head < len(sa); head++ {
		if a.anyAccepting(sa[head]) != b.anyAccepting(sb[head]) {
			return false, refWord(parent, via, head), len(sa), nil
		}
		for sym := 0; sym < a.numSymbols; sym++ {
			push(refStep(a, sa[head], sym, markA), refStep(b, sb[head], sym, markB), head, sym)
		}
	}
	return true, nil, len(sa), nil
}

func refUniversal(n *NFA) (bool, []int, int) {
	var sets [][]int32
	var parent, via []int
	seen := map[string]bool{}
	push := func(x []int32, p, sym int) {
		if k := refKey(x); !seen[k] {
			seen[k] = true
			sets = append(sets, x)
			parent, via = append(parent, p), append(via, sym)
		}
	}
	push([]int32{n.start}, -1, 0)
	mark := make([]bool, n.numStates)
	for head := 0; head < len(sets); head++ {
		if !n.anyAccepting(sets[head]) {
			return false, refWord(parent, via, head), len(sets)
		}
		for sym := 0; sym < n.numSymbols; sym++ {
			push(refStep(n, sets[head], sym, mark), head, sym)
		}
	}
	return true, nil, len(sets)
}
