package kequiv

import (
	"sort"

	"ccs/internal/automata"
	"ccs/internal/fsp"
	"ccs/internal/partition"
)

// This file keeps the hand-written ≈_k pair walk and ladder that preceded
// the shared subset-pair walk of internal/automata, and the trace-witness
// path that copied the weak index into two automata.NFAs, as references
// for the differential test. The walk keys its visited pairs by the bytes
// of sorted state lists and steps through a map and a sort.

func refStep(g *weakGraph, set []fsp.State, obs int) []fsp.State {
	mark := map[fsp.State]struct{}{}
	for _, s := range set {
		for _, t := range g.dests(s, obs) {
			mark[fsp.State(t)] = struct{}{}
		}
	}
	out := make([]fsp.State, 0, len(mark))
	for s := range mark {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func refColor(p *partition.Partition, set []fsp.State) []int32 {
	mark := map[int32]struct{}{}
	for _, s := range set {
		mark[p.Block(int32(s))] = struct{}{}
	}
	out := make([]int32, 0, len(mark))
	for b := range mark {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func refKey[S ~int32](set []S) string {
	buf := make([]byte, 0, 4*len(set))
	for _, s := range set {
		buf = append(buf, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return string(buf)
}

// refEquivalentUnder is the reference colour walk; it also returns the
// number of pairs it enqueued.
func refEquivalentUnder(g *weakGraph, prev *partition.Partition, p, q fsp.State) (bool, int) {
	type pair struct{ a, b []fsp.State }
	start := pair{a: g.clo.Of(p), b: g.clo.Of(q)}
	seen := map[string]bool{}
	queue := []pair{start}
	seen[refKey(start.a)+"|"+refKey(start.b)] = true
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if refKey(refColor(prev, cur.a)) != refKey(refColor(prev, cur.b)) {
			return false, len(queue)
		}
		for obs := 0; obs < g.numObs; obs++ {
			na, nb := refStep(g, cur.a, obs), refStep(g, cur.b, obs)
			if len(na) == 0 && len(nb) == 0 {
				continue
			}
			k := refKey(na) + "|" + refKey(nb)
			if !seen[k] {
				seen[k] = true
				queue = append(queue, pair{a: na, b: nb})
			}
		}
	}
	return true, len(queue)
}

// refLadder refines ≈_0 up to ≈_k with the reference walk.
func refLadder(g *weakGraph, k int) *partition.Partition {
	cur := extPartition(g.f)
	for level := 0; k < 0 || level < k; level++ {
		blockOf := make([]int32, g.f.NumStates())
		var nextID int32
		for _, block := range cur.Blocks() {
			var reps []fsp.State
			var repIDs []int32
			for _, x := range block {
				s := fsp.State(x)
				placed := false
				for i, r := range reps {
					if eq, _ := refEquivalentUnder(g, cur, s, r); eq {
						blockOf[x] = repIDs[i]
						placed = true
						break
					}
				}
				if !placed {
					reps = append(reps, s)
					repIDs = append(repIDs, nextID)
					blockOf[x] = nextID
					nextID++
				}
			}
		}
		next := partition.NewPartition(blockOf)
		if next.Equal(cur) {
			break
		}
		cur = next
	}
	return cur
}

// refEquivalentStates is the reference pair decision for k ≥ 1: the
// ≈_{k-1} ladder and one top-level walk, with that walk's pair count.
func refEquivalentStates(f *fsp.FSP, p, q fsp.State, k int) (bool, int) {
	if f.Ext(p) != f.Ext(q) {
		return false, 0
	}
	g := newWeakGraph(f)
	prev := refLadder(g, k-1)
	if !prev.Same(int32(p), int32(q)) {
		return false, 0
	}
	return refEquivalentUnder(g, prev, p, q)
}

// weakNFA views an FSP as a classical NFA over its observable alphabet:
// arcs are weak derivatives and a state accepts iff some member of its
// tau-closure is accepting.
func weakNFA(f *fsp.FSP, start fsp.State) (*automata.NFA, error) {
	g := newWeakGraph(f)
	n, err := automata.NewNFA(f.NumStates(), g.numObs, int32(start))
	if err != nil {
		return nil, err
	}
	for s := 0; s < f.NumStates(); s++ {
		accepting := false
		for _, t := range g.clo.Of(fsp.State(s)) {
			if f.Accepting(t) {
				accepting = true
				break
			}
		}
		n.SetAccept(int32(s), accepting)
		for obs := 0; obs < g.numObs; obs++ {
			for _, to := range g.dests(fsp.State(s), obs) {
				if err := n.AddArc(int32(s), obs, to); err != nil {
					return nil, err
				}
			}
		}
	}
	return n, nil
}

// refTraceWitness is the earlier TraceWitness: the union's weak NFA, copied
// once per start state, compared by automata.EquivalentNFA.
func refTraceWitness(f, g *fsp.FSP) (bool, []string, error) {
	u, off, err := fsp.DisjointUnion(f, g)
	if err != nil {
		return false, nil, err
	}
	nfaF, err := weakNFA(u, f.Start())
	if err != nil {
		return false, nil, err
	}
	nfaG, err := weakNFA(u, off+g.Start())
	if err != nil {
		return false, nil, err
	}
	eq, w, err := automata.EquivalentNFA(nfaF, nfaG)
	if err != nil || eq {
		return eq, nil, err
	}
	names := make([]string, len(w))
	for i, sym := range w {
		names[i] = u.Alphabet().Name(fsp.Action(sym + 1))
	}
	return false, names, nil
}
