package failures

import (
	"context"

	"ccs/internal/automata"
	"ccs/internal/fsp"
)

// RefinesProcesses decides the failures refinement preorder of the CSP
// school the paper draws its failure semantics from (Brookes, Hoare &
// Roscoe 1984) on the start states of two processes:
//
//	impl refines spec   iff   failures(impl) ⊆ failures(spec).
//
// Refinement is how failure semantics is used in practice: the
// implementation may be more deterministic (fewer refusals, fewer traces)
// than the specification but never exhibit a failure the specification
// forbids. Failure equivalence is mutual refinement.
//
// On inequivalence the witness carries a failure of impl that spec does
// not admit. Both processes must be restricted (Definition 2.2.4's model).
func RefinesProcesses(spec, impl *fsp.FSP) (bool, *Witness, error) {
	ok, w, _, err := refines(spec, spec.Start(), impl, impl.Start())
	return ok, w, err
}

// refines decides refinement for states specStart of spec and implStart
// of impl, and counts the subset pairs visited. Every maximal refusal of
// impl must fit under some maximal refusal of spec (downward-closure
// containment). A step impl cannot take has nothing to check; a step only
// impl can take is a trace spec lacks. Either way the offending failure
// is impl's.
func refines(spec *fsp.FSP, specStart fsp.State, impl *fsp.FSP, implStart fsp.State) (bool, *Witness, int, error) {
	w, at, visited, err := pairWalk(context.Background(), spec, specStart, impl, implStart, (*semantics).refusals,
		[2]automata.Rule{automata.Stop, automata.Prune}, contained)
	if at != nil {
		for _, ri := range at[1] {
			if !within(ri, at[0]) {
				w.Failure.Refusal = ri
				break
			}
		}
	}
	return w == nil && err == nil, w, visited, err
}

// contained reports whether every refusal of the antichain impl lies under
// one of spec.
func contained(spec, impl []RefusalSet) bool {
	for _, ri := range impl {
		if !within(ri, spec) {
			return false
		}
	}
	return true
}
