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
// with different extensions are rejected before any solve; otherwise one
// tau-closure serves both the saturation behind the ≈ partition and the
// root-condition check.
func ObservationCongruentStates(f *fsp.FSP, p, q fsp.State) (bool, error) {
	if f.Ext(p) != f.Ext(q) {
		return false, nil
	}
	clo := fsp.TauClosure(f)
	sat, _, err := fsp.SaturateWith(f, clo)
	if err != nil {
		return false, fmt.Errorf("observation congruence: observational equivalence: %w", err)
	}
	weak := StrongPartition(sat)
	return rootMatch(f, clo, weak, p, q) && rootMatch(f, clo, weak, q, p), nil
}

// rootMatch checks the asymmetric half of the root condition: every initial
// move of p is matched by a nonempty weak move of q into the same ≈-class.
func rootMatch(f *fsp.FSP, clo fsp.Closure, weak *partition.Partition, p, q fsp.State) bool {
	for _, a := range f.Arcs(p) {
		var candidates []fsp.State
		if a.Act == fsp.Tau {
			candidates = tauDerivativesNonempty(f, clo, q)
		} else {
			candidates = fsp.WeakDest(f, clo, q, a.Act)
		}
		matched := false
		for _, cand := range candidates {
			if weak.Same(int32(a.To), int32(cand)) {
				matched = true
				break
			}
		}
		if !matched {
			return false
		}
	}
	return true
}

// tauDerivativesNonempty returns the states reachable from q by at least
// one tau move (q ==eps=> · --tau--> · ==eps=>).
func tauDerivativesNonempty(f *fsp.FSP, clo fsp.Closure, q fsp.State) []fsp.State {
	seen := map[fsp.State]struct{}{}
	for _, mid := range clo.Of(q) {
		for _, t := range f.Dest(mid, fsp.Tau) {
			for _, end := range clo.Of(t) {
				seen[end] = struct{}{}
			}
		}
	}
	out := make([]fsp.State, 0, len(seen))
	for s := range seen {
		out = append(out, s)
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
