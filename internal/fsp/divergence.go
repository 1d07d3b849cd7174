package fsp

// Divergent reports, per state, whether an infinite sequence of tau moves
// is possible from it — i.e. whether the state can tau-reach a tau-cycle.
//
// The paper's equivalences are divergence-blind: observational equivalence
// happily equates a retransmitting loop with its spec (Theorem 4.1a works
// on the saturated process, where the loop collapses), and failures(p) as
// defined in Section 2.1 has no divergence component (unlike the full CSP
// failures/divergences model of Brookes-Hoare-Roscoe). This predicate lets
// users detect the situations where that blindness matters.
//
// One pass over the tau-SCC DAG (TauSCC), sinks first, in O(n + m): a
// component diverges when it is cyclic or a tau-successor component
// diverges, and a state diverges with its component.
func Divergent(f *FSP) []bool {
	scc := TauSCC(f)
	div := make([]bool, scc.Len())
	out := make([]bool, f.NumStates())
	for c := int32(0); int(c) < scc.Len(); c++ {
		members := scc.Members[scc.Start[c]:scc.Start[c+1]]
		d := scc.Cyclic(f, c)
		for _, s := range members {
			for _, a := range f.adj[s] {
				if a.Act != Tau || d {
					break
				}
				d = div[scc.Of[a.To]]
			}
		}
		div[c] = d
		for _, s := range members {
			out[s] = d
		}
	}
	return out
}
