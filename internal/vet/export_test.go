package vet

import "ccs/internal/fsp"

// Process runs the single-process analyzers (unguarded-start,
// tau-divergence) over one process, positioned as the spec when spec is
// true, as Network does for each component and the specification.
func Process(f *fsp.FSP, component int, spec bool) []Diagnostic {
	a := &analysis{}
	a.vetProcessDivergence(f, component, spec)
	return a.diags
}
