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
// with different extensions are rejected before any solve; otherwise one
// tau-closure serves both the saturation behind the ≈ partition and the
// root-condition check.
func ObservationCongruentStates(f *fsp.FSP, p, q fsp.State, opts ...Option) (bool, error) {
	if f.Ext(p) != f.Ext(q) {
		return false, nil
	}
	clo := fsp.TauClosure(f)
	sat, _, err := fsp.SaturateWith(f, clo)
	if err != nil {
		return false, fmt.Errorf("observation congruence: observational equivalence: %w", err)
	}
	weak := StrongPartition(sat, opts...)
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
func ObservationCongruent(f, g *fsp.FSP, opts ...Option) (bool, error) {
	u, off, err := fsp.DisjointUnion(f, g)
	if err != nil {
		return false, fmt.Errorf("observation congruence: %w", err)
	}
	return ObservationCongruentStates(u, f.Start(), off+g.Start(), opts...)
}
