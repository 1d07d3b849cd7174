package core

import (
	"fmt"

	"ccs/internal/fsp"
	"ccs/internal/partition"
)

// Observation congruence ≈ᶜ (Milner's "observational congruence", the
// relation axiomatized by the complete inference system that Section 2.3
// cites from Milner 1984): the largest congruence contained in ≈. It
// strengthens the root condition: every initial move of p — including tau
// moves — must be matched by a weak move of q that contains AT LEAST ONE
// transition, after which the derivatives are observationally equivalent.
// The classic separating example is tau·a ≈ a but tau·a ≉ᶜ a, because a
// cannot match the initial tau with a nonempty weak move to an a-state.

// ObservationCongruentStates reports p ≈ᶜ q for two states of f. Roots
// with different extensions are rejected before any solve; otherwise the
// ≈-partition comes from the kernel of weak.go, and the root condition is
// checked by searching the two roots' nonempty weak moves directly, so no
// tau-closure is built.
func ObservationCongruentStates(f *fsp.FSP, p, q fsp.State) (bool, error) {
	if f.Ext(p) != f.Ext(q) {
		return false, nil
	}
	weak, _, err := weakPartition(f, -1)
	if err != nil {
		return false, fmt.Errorf("observation congruence: observational equivalence: %w", err)
	}
	return rootMatch(f, weak.Partition, p, q) && rootMatch(f, weak.Partition, q, p), nil
}

// rootMatch checks the asymmetric half of the root condition: every initial
// move of p is matched by a nonempty weak move of q into the same ≈-class.
func rootMatch(f *fsp.FSP, weak *partition.Partition, p, q fsp.State) bool {
	arcs := f.Arcs(p)
	in := make([]bool, weak.NumBlocks())
	for i := 0; i < len(arcs); {
		act := arcs[i].Act
		clear(in)
		for _, t := range weakMoves(f, q, act) {
			in[weak.Block(int32(t))] = true
		}
		for ; i < len(arcs) && arcs[i].Act == act; i++ {
			if !in[weak.Block(int32(arcs[i].To))] {
				return false
			}
		}
	}
	return true
}

// weakMoves returns the states q reaches by a nonempty weak move on act:
// by τ⁺ when act is tau (q's tau-successors, then τ*), else by τ*·act·τ*.
func weakMoves(f *fsp.FSP, q fsp.State, act fsp.Action) []fsp.State {
	if act == fsp.Tau {
		return tauReach(f, f.Dest(q, fsp.Tau))
	}
	var mid []fsp.State
	for _, s := range tauReach(f, []fsp.State{q}) {
		mid = append(mid, f.Dest(s, act)...)
	}
	return tauReach(f, mid)
}

// tauReach returns the states reachable from the given ones by τ*.
func tauReach(f *fsp.FSP, from []fsp.State) []fsp.State {
	seen := make([]bool, f.NumStates())
	var out []fsp.State
	for _, s := range from {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for i := 0; i < len(out); i++ {
		// Tau is action 0, so the tau arcs lead each sorted row.
		for _, a := range f.Arcs(out[i]) {
			if a.Act != fsp.Tau {
				break
			}
			if !seen[a.To] {
				seen[a.To] = true
				out = append(out, a.To)
			}
		}
	}
	return out
}

// ObservationCongruent reports whether the start states of f and g are
// observation congruent.
func ObservationCongruent(f, g *fsp.FSP) (bool, error) {
	u, off, err := fsp.DisjointUnion(f, g)
	if err != nil {
		return false, fmt.Errorf("observation congruence: %w", err)
	}
	return ObservationCongruentStates(u, f.Start(), off+g.Start())
}
