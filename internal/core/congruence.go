package core

import (
	"fmt"
	"slices"

	"ccs/internal/fsp"
	"ccs/internal/lts"
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

// ObservationCongruentClosed reports whether the start states of two
// weak-closed processes — ≈- or ≈ᶜ-quotients (QuotientWeak,
// QuotientCongruence) — are observation congruent, given the P-hat
// indexes of both (lts.FromWeakClosed). One partition solve on the union
// of the indexes gives ≈; the root condition is then read off the two
// roots' own rows of the union. In a weak-closed process the weak
// sigma-derivatives of a state are its sigma-arcs, and its nonempty tau
// derivatives are its tau-successors plus itself when it lies on a tau
// cycle: a tau self-loop, or a tau-successor with a tau arc back (tau-arcs
// are transitively closed up to the diagonal, so every longer cycle has
// such a two-step witness).
func ObservationCongruentClosed(f, g *fsp.FSP, fi, gi *lts.Index) (bool, error) {
	u, initial, off, err := pairInstance(f, g, fi, gi)
	if err != nil {
		return false, fmt.Errorf("observation congruence: %w", err)
	}
	p, q := int32(f.Start()), off+int32(g.Start())
	if initial[p] != initial[q] {
		return false, nil
	}
	weak := partition.PaigeTarjanIndex(u, initial)
	if !weak.Same(p, q) {
		return false, nil
	}
	eps := int32(slices.Index(u.LabelNames(), fsp.EpsilonName))
	pCyc := onTauCycle(u, eps, p, f.HasArc(f.Start(), fsp.Tau, f.Start()))
	qCyc := onTauCycle(u, eps, q, g.HasArc(g.Start(), fsp.Tau, g.Start()))
	stamp := make([]int32, weak.NumBlocks())
	return closedRootMatch(u, weak, eps, p, q, pCyc, qCyc, stamp, 0) &&
		closedRootMatch(u, weak, eps, q, p, qCyc, pCyc, stamp, int32(u.NumLabels())), nil
}

// onTauCycle reports whether state r of a weak-closed process reaches
// itself by a nonempty tau path, reading the epsilon rows of its P-hat
// index u (tau-successors plus the reflexive self-loop); selfLoop reports
// a tau self-loop of r, which the epsilon row cannot show.
func onTauCycle(u *lts.Index, eps, r int32, selfLoop bool) bool {
	if selfLoop {
		return true
	}
	for _, t := range u.Dests(r, eps) {
		if _, back := slices.BinarySearch(u.Dests(t, eps), r); t != r && back {
			return true
		}
	}
	return false
}

// closedRootMatch checks one half of the root condition on the union u of
// two P-hat indexes of weak-closed processes: every label run of p's row
// must meet, in every target, the ≈-block of some target of q's run for
// the same label. For epsilon (the tau moves), a root counts as its own
// nonempty tau derivative only when it lies on a tau cycle (pCyc, qCyc).
// q's blocks are stamped with one epoch per label, starting at epoch+1.
func closedRootMatch(u *lts.Index, weak *partition.Partition, eps, p, q int32, pCyc, qCyc bool, stamp []int32, epoch int32) bool {
	start, label, to := u.Fwd()
	for i, hi := start[p], start[p+1]; i < hi; {
		l := label[i]
		epoch++
		for _, t := range u.Dests(q, l) {
			if t != q || l != eps || qCyc {
				stamp[weak.Block(t)] = epoch
			}
		}
		for ; i < hi && label[i] == l; i++ {
			t := to[i]
			if t == p && l == eps && !pCyc {
				continue
			}
			if stamp[weak.Block(t)] != epoch {
				return false
			}
		}
	}
	return true
}
