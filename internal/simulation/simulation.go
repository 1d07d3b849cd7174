// Package simulation implements the simulation preorder and simulation
// equivalence on finite state processes, the one-directional counterpart of
// the paper's strong bisimulation: q simulates p when every move of p can
// be tracked by q, without the reverse obligation. Simulation equivalence
// (mutual similarity) sits strictly between strong bisimulation and trace
// equivalence, completing the spectrum the paper studies:
//
//	~  ⊆  simulation equivalence  ⊆  ≈_1
//
// The computation is the standard greatest-fixed-point refinement: start
// from the extension-compatible relation and delete pairs (p, q) for which
// some move of p has no matching move of q, until stable. O(n^2 m)
// worst case, polynomial like the paper's partitioning algorithms.
package simulation

import (
	"fmt"

	"ccs/internal/fsp"
)

// Preorder computes the largest simulation relation on f's states as a
// boolean matrix: rel[p][q] == true means q simulates p (p ≤ q). Tau is
// treated as an ordinary action (strong simulation), mirroring the strong
// equivalence convention of the core package.
func Preorder(f *fsp.FSP) [][]bool {
	n := f.NumStates()
	rel := make([][]bool, n)
	for p := 0; p < n; p++ {
		rel[p] = make([]bool, n)
		for q := 0; q < n; q++ {
			// Initial over-approximation: extensions must agree.
			rel[p][q] = f.Ext(fsp.State(p)) == f.Ext(fsp.State(q))
		}
	}
	// Refine to the greatest fixed point.
	for changed := true; changed; {
		changed = false
		for p := 0; p < n; p++ {
			for q := 0; q < n; q++ {
				if !rel[p][q] {
					continue
				}
				if !moveMatch(f, rel, fsp.State(p), fsp.State(q)) {
					rel[p][q] = false
					changed = true
				}
			}
		}
	}
	return rel
}

// moveMatch reports whether every move of p is matched by a move of q into
// a simulating state.
func moveMatch(f *fsp.FSP, rel [][]bool, p, q fsp.State) bool {
	for _, a := range f.Arcs(p) {
		matched := false
		for _, to := range f.Dest(q, a.Act) {
			if rel[a.To][to] {
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

// SimulatesStates reports whether q simulates p within f.
func SimulatesStates(f *fsp.FSP, p, q fsp.State) bool {
	return Preorder(f)[p][q]
}

// Simulates reports whether g's start state simulates f's start state.
func Simulates(f, g *fsp.FSP) (bool, error) {
	u, off, err := fsp.DisjointUnion(f, g)
	if err != nil {
		return false, fmt.Errorf("simulation: %w", err)
	}
	return SimulatesStates(u, f.Start(), off+g.Start()), nil
}

// Equivalent reports simulation equivalence (mutual similarity) of the
// start states of f and g.
func Equivalent(f, g *fsp.FSP) (bool, error) {
	u, off, err := fsp.DisjointUnion(f, g)
	if err != nil {
		return false, fmt.Errorf("simulation: %w", err)
	}
	rel := Preorder(u)
	p, q := f.Start(), off+g.Start()
	return rel[p][q] && rel[q][p], nil
}
