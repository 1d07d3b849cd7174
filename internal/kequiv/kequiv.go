// Package kequiv decides the k-observational equivalences ≈_k of Definition
// 2.2.1 exactly.
//
// Unlike the ≃_k ladder (one partition-refinement round per level, handled
// in the core package), each ≈_k level quantifies over all strings in
// Sigma*: ≈_1 is NFA language equivalence and each subsequent level is
// decided through the characterization in the proof of Theorem 4.1(b):
//
//	p ≈_{k+1} q   iff   for every class B_i of ≈_k,  L_i(p) = L_i(q),
//
// where L_i(p) is the language of the (weak-derivative) NFA with start p
// and accept set B_i. Deciding ≈_k is PSPACE-complete for every fixed k ≥ 1
// (Theorem 4.1b), so the decision procedure is necessarily exponential in
// the worst case: language comparisons run the one subset-pair walk of
// internal/automata over the weak arcs, observing each derivative subset
// by the set of ≈_{k-1} classes it meets (its colour). All comparisons at
// one level share one subset construction, so a subset's successors and
// colour are computed once per level.
//
// A pair query needs the whole ≈_{k-1} partition but only one comparison
// at the top level: Equivalent, which every caller of a single verdict
// uses, builds the ≈_{k-1} ladder — for trace, k = 1, just the extension
// partition — and then runs one synchronized subset walk from the queried
// pair: p ≈_k q iff p ≈_{k-1} q and L_i(p) = L_i(q) for every ≈_{k-1}
// class B_i. Every walk polls the query's context, so a
// cancelled query stops within a few hundred subset pairs. Partition
// refines the whole process to ≈_k, comparing every state against the
// representatives of its block at every level; it serves callers that
// need the classes and is the test oracle for the pair path.
//
// One definitional subtlety: for observable FSPs the ≈_k hierarchy is
// decreasing (≈_{k+1} ⊆ ≈_k, the "successively finer" sequence of the
// introduction) and this package computes it exactly. In the general model
// with tau moves, ≈_1 as literally defined need not refine ≈_0 (a state can
// match another's extension through a tau move); Partition computes the
// decreasing variant — each level intersected with the previous — which
// coincides with ≈_k on observable processes, which is where all of the
// paper's ≈_k results live, and whose fixed point is ≈ in every model.
package kequiv

import (
	"context"
	"fmt"

	"ccs/internal/automata"
	"ccs/internal/fsp"
	"ccs/internal/hashcons"
	"ccs/internal/lts"
	"ccs/internal/partition"
)

// weakGraph is the saturated view of an FSP used by all deciders: weak
// sigma-arcs between states plus per-state tau-closures. The weak arcs are
// held as a CSR index (internal/lts) with one dense label per observable
// action, built once per process: per-(state, action) destination lists are
// contiguous shared subslices of one flat array rather than n×|Sigma|
// individually allocated slices.
type weakGraph struct {
	f      *fsp.FSP
	clo    fsp.Closure
	idx    *lts.Index // label i = i-th observable action (fsp.Action i+1)
	numObs int
}

func newWeakGraph(f *fsp.FSP) *weakGraph {
	clo := fsp.TauClosure(f)
	return &weakGraph{
		f:      f,
		clo:    clo,
		idx:    lts.FromWeak(f, clo),
		numObs: f.Alphabet().NumObservable(),
	}
}

// dests returns the sorted weak destinations of s under the obs-th
// observable action (a shared subslice of the index).
func (g *weakGraph) dests(s fsp.State, obs int) []int32 {
	return g.idx.Dests(int32(s), int32(obs))
}

// colours returns g's subset construction observing each subset's colour:
// the set of prev's blocks it meets, hash-consed into a dense id, so two
// subsets have equal colours iff their ids are equal.
func (g *weakGraph) colours(prev *partition.Partition) *automata.Subsets[int32] {
	row := make([]uint64, (prev.NumBlocks()+63)/64)
	ids := hashcons.New[uint64](len(row), 0)
	return automata.NewSubsets(g.idx, func(set []int32) int32 {
		clear(row)
		for _, s := range set {
			b := prev.Block(s)
			row[b>>6] |= 1 << (b & 63)
		}
		id, _ := ids.Intern(row)
		return id
	})
}

// equivalentUnder reports whether p and q have equal languages L_i for
// every block of the partition sub colours by, via the synchronized
// subset walk that compares the colours of the derivative sets after
// every string. A string only one side can follow ends the walk: a
// non-empty set always has a colour the empty set lacks. It also returns
// the number of subset pairs visited.
func (g *weakGraph) equivalentUnder(ctx context.Context, sub *automata.Subsets[int32], p, q fsp.State) (bool, int, error) {
	m, visited, err := automata.Walk(ctx, []automata.Side[int32]{
		{Subsets: sub, Root: automata.Intern(sub, g.clo.Of(p)), Dead: automata.Stop},
		{Subsets: sub, Root: automata.Intern(sub, g.clo.Of(q)), Dead: automata.Stop},
	}, func(a, b int32) bool { return a == b })
	return m == nil && err == nil, visited, err
}

// extPartition is ≈_0: states grouped by extension.
func extPartition(f *fsp.FSP) *partition.Partition {
	blockOf := make([]int32, f.NumStates())
	ids := map[fsp.VarSet]int32{}
	for s := 0; s < f.NumStates(); s++ {
		e := f.Ext(fsp.State(s))
		id, ok := ids[e]
		if !ok {
			id = int32(len(ids))
			ids[e] = id
		}
		blockOf[s] = id
	}
	return partition.NewPartition(blockOf)
}

// Partition computes the ≈_k partition of f's states. k = 0 groups by
// extension; k < 0 iterates to the fixed point, which is observational
// equivalence ≈ (Definition 2.2.1). The second result is the number of
// levels actually computed before the sequence stabilized (at most k).
func Partition(f *fsp.FSP, k int) (*partition.Partition, int, error) {
	if f.NumStates() == 0 {
		return nil, 0, fmt.Errorf("kequiv: empty process")
	}
	if k == 0 {
		return extPartition(f), 0, nil
	}
	return newWeakGraph(f).ladder(context.Background(), k)
}

// ladder refines ≈_0 level by level up to ≈_k (k < 0: to the fixed
// point), stopping early once a level repeats. It returns the partition
// and the number of levels that changed it.
func (g *weakGraph) ladder(ctx context.Context, k int) (*partition.Partition, int, error) {
	cur := extPartition(g.f)
	level := 0
	for k < 0 || level < k {
		next, err := refineByLanguages(ctx, g, cur)
		if err != nil {
			return nil, level, err
		}
		level++
		if next.Equal(cur) {
			return cur, level - 1, nil
		}
		cur = next
	}
	return cur, level, nil
}

// refineByLanguages computes the next ≈ level from the previous one: two
// states stay together iff they sit in the same previous block AND their
// per-block languages agree. (≈_{k+1} refines ≈_k, so only same-block pairs
// are compared.)
func refineByLanguages(ctx context.Context, g *weakGraph, prev *partition.Partition) (*partition.Partition, error) {
	sub := g.colours(prev)
	n := g.f.NumStates()
	blockOf := make([]int32, n)
	for i := range blockOf {
		blockOf[i] = -1
	}
	var nextID int32
	for _, block := range prev.Blocks() {
		// Group block members against representatives of the subgroups
		// discovered so far.
		var reps []fsp.State
		var repIDs []int32
		for _, x := range block {
			s := fsp.State(x)
			placed := false
			for i, r := range reps {
				eq, _, err := g.equivalentUnder(ctx, sub, s, r)
				if err != nil {
					return nil, err
				}
				if eq {
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
	return partition.NewPartition(blockOf), nil
}

// equivalentStates reports p ≈_k q for two states of f, deciding the top
// level for this pair alone (see the package comment); the verdict is
// Partition(f, k).Same(p, q). k < 0 means full observational equivalence
// via the ≈_k fixed point (cross-validating the polynomial algorithm in
// the core package). It also counts the subset pairs of the top-level
// walk, and returns ctx's error once ctx is cancelled.
func equivalentStates(ctx context.Context, f *fsp.FSP, p, q fsp.State, k int) (bool, int, error) {
	if k < 0 {
		if f.NumStates() == 0 {
			return false, 0, fmt.Errorf("kequiv: empty process")
		}
		part, _, err := newWeakGraph(f).ladder(ctx, k)
		if err != nil {
			return false, 0, err
		}
		return part.Same(int32(p), int32(q)), 0, nil
	}
	if f.Ext(p) != f.Ext(q) {
		return false, 0, nil // every level refines ≈_0, the extension partition
	}
	if k == 0 {
		return true, 0, nil
	}
	g := newWeakGraph(f)
	prev, _, err := g.ladder(ctx, k-1)
	if err != nil || !prev.Same(int32(p), int32(q)) {
		return false, 0, err
	}
	return g.equivalentUnder(ctx, g.colours(prev), p, q)
}

// Equivalent reports whether the start states of f and g are ≈_k. It
// returns ctx's error once ctx is cancelled.
func Equivalent(ctx context.Context, f, g *fsp.FSP, k int) (bool, error) {
	u, off, err := fsp.DisjointUnion(f, g)
	if err != nil {
		return false, fmt.Errorf("kequiv: %w", err)
	}
	eq, _, err := equivalentStates(ctx, u, f.Start(), off+g.Start(), k)
	return eq, err
}

// TraceEquivalent reports ≈_1, which by Proposition 2.2.3(b) is language
// (trace) equivalence for standard processes.
func TraceEquivalent(f, g *fsp.FSP) (bool, error) {
	return Equivalent(context.Background(), f, g, 1)
}

// EquivalentToTrivial implements the closing observation of Section 4: in
// the restricted model, p ≈_2 q* — where q* is the one-state process with a
// self-loop for every action (Fig. 5d) — iff every state weakly reachable
// from p can weakly perform every symbol of Sigma. The check is linear in
// the saturated process.
func EquivalentToTrivial(f *fsp.FSP, start fsp.State) (bool, error) {
	cls := fsp.Classify(f)
	if !cls.Restricted {
		return false, fmt.Errorf("kequiv: trivial-NFA test requires the restricted model")
	}
	g := newWeakGraph(f)
	seen := make([]bool, f.NumStates())
	var stack []fsp.State
	push := func(s fsp.State) {
		if !seen[s] {
			seen[s] = true
			stack = append(stack, s)
		}
	}
	for _, s := range g.clo.Of(start) {
		push(s)
	}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for obs := 0; obs < g.numObs; obs++ {
			ds := g.dests(s, obs)
			if len(ds) == 0 {
				return false, nil
			}
			for _, t := range ds {
				push(fsp.State(t))
			}
		}
	}
	return true, nil
}
