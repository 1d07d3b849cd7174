package fsp_test

import (
	"math/rand"
	"slices"
	"testing"

	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// divergentRef is the closure-based Divergent that the tau-SCC DAG pass
// replaced, kept as the reference: mark the states of cyclic tau-SCCs
// (found by an iterative Tarjan over the tau arcs), then call a state
// divergent when its tau-closure meets a marked state.
func divergentRef(f *fsp.FSP) []bool {
	n := f.NumStates()
	tauAdj := make([][]fsp.State, n)
	for s := 0; s < n; s++ {
		for _, a := range f.Arcs(fsp.State(s)) {
			if a.Act == fsp.Tau {
				tauAdj[s] = append(tauAdj[s], a.To)
			}
		}
	}
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	inCycle := make([]bool, n)
	for i := range index {
		index[i] = unvisited
	}
	var (
		stack   []fsp.State
		next    int32
		callPos []int
		callSt  []fsp.State
	)
	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callSt = append(callSt[:0], fsp.State(root))
		callPos = append(callPos[:0], 0)
		index[root], low[root] = next, next
		next++
		stack = append(stack[:0], fsp.State(root))
		onStack[root] = true
		for len(callSt) > 0 {
			s := callSt[len(callSt)-1]
			pos := callPos[len(callPos)-1]
			if pos < len(tauAdj[s]) {
				callPos[len(callPos)-1]++
				t := tauAdj[s][pos]
				if index[t] == unvisited {
					index[t], low[t] = next, next
					next++
					stack = append(stack, t)
					onStack[t] = true
					callSt = append(callSt, t)
					callPos = append(callPos, 0)
				} else if onStack[t] && index[t] < low[s] {
					low[s] = index[t]
				}
				continue
			}
			callSt = callSt[:len(callSt)-1]
			callPos = callPos[:len(callPos)-1]
			if len(callSt) > 0 {
				if p := callSt[len(callSt)-1]; low[s] < low[p] {
					low[p] = low[s]
				}
			}
			if low[s] != index[s] {
				continue
			}
			var members []fsp.State
			for {
				m := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[m] = false
				members = append(members, m)
				if m == s {
					break
				}
			}
			cyclic := len(members) > 1 || slices.Contains(tauAdj[members[0]], members[0])
			for _, m := range members {
				inCycle[m] = cyclic
			}
		}
	}
	clo := fsp.TauClosure(f)
	out := make([]bool, n)
	for s := 0; s < n; s++ {
		for _, t := range clo.Of(fsp.State(s)) {
			if inCycle[t] {
				out[s] = true
				break
			}
		}
	}
	return out
}

// divergenceCorpus gathers random processes across tau densities, from
// tau-free to tau-rich, and every gallery process.
func divergenceCorpus() []*fsp.FSP {
	rng := rand.New(rand.NewSource(7))
	var out []*fsp.FSP
	for i := 0; i < 300; i++ {
		n := 1 + rng.Intn(40)
		out = append(out, gen.Random(rng, n, rng.Intn(4*n+1), 1+rng.Intn(3), float64(i%10)/9))
	}
	for _, g := range gen.Fig2Gallery() {
		out = append(out, g.P, g.Q)
	}
	for _, g := range append(gen.NetworkGallery(), gen.ProtocolGallery()...) {
		out = append(out, g.Spec)
		for _, c := range g.Net.Components {
			out = append(out, c.P)
		}
	}
	return append(out, gen.Chain(30), gen.Cycle(30), gen.LossyCell(3), gen.NondetCounterSpec(6))
}

// TestDivergentMatchesClosureReference: the SCC-DAG pass marks exactly
// the states the closure-based reference marks.
func TestDivergentMatchesClosureReference(t *testing.T) {
	for i, f := range divergenceCorpus() {
		if got, want := fsp.Divergent(f), divergentRef(f); !slices.Equal(got, want) {
			t.Fatalf("case %d (%s): Divergent = %v, reference %v", i, f.Name(), got, want)
		}
	}
}

// TestTauSCCSinksFirst: every tau arc stays in its component or leads to
// a lower-numbered one, members are grouped by component, and two states
// share a component iff each tau-reaches the other.
func TestTauSCCSinksFirst(t *testing.T) {
	for i, f := range divergenceCorpus() {
		scc := fsp.TauSCC(f)
		clo := fsp.TauClosure(f)
		if len(scc.Members) != f.NumStates() || int(scc.Start[scc.Len()]) != f.NumStates() {
			t.Fatalf("case %d: %d members for %d states", i, len(scc.Members), f.NumStates())
		}
		for c := 0; c < scc.Len(); c++ {
			for _, s := range scc.Members[scc.Start[c]:scc.Start[c+1]] {
				if scc.Of[s] != int32(c) {
					t.Fatalf("case %d: state %d listed in component %d but Of = %d", i, s, c, scc.Of[s])
				}
			}
		}
		for s := 0; s < f.NumStates(); s++ {
			for _, a := range f.Arcs(fsp.State(s)) {
				if a.Act == fsp.Tau && scc.Of[a.To] > scc.Of[s] {
					t.Fatalf("case %d: tau arc %d -> %d climbs from component %d to %d", i, s, a.To, scc.Of[s], scc.Of[a.To])
				}
			}
			for _, u := range clo.Of(fsp.State(s)) {
				back := slices.Contains(clo.Of(u), fsp.State(s))
				if same := scc.Of[s] == scc.Of[u]; same != back {
					t.Fatalf("case %d: states %d and %d: same component %v, mutually tau-reachable %v", i, s, u, same, back)
				}
			}
		}
	}
}
