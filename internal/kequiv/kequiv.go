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
// the worst case: language comparisons run as synchronized on-the-fly
// subset constructions.
//
// A pair query needs the whole ≈_{k-1} partition but only one comparison
// at the top level: EquivalentStates (and Equivalent, which every caller
// of a single verdict uses) builds the ≈_{k-1} ladder — for trace, k = 1,
// just the extension partition — and then runs one synchronized subset
// walk from the queried pair: p ≈_k q iff p ≈_{k-1} q and L_i(p) = L_i(q)
// for every ≈_{k-1} class B_i. Partition refines the whole process to ≈_k,
// comparing every state against the representatives of its block at every
// level; it serves callers that need the classes and is the test oracle
// for the pair path.
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
	"fmt"
	"sort"

	"ccs/internal/fsp"
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

// step advances a sorted, closure-closed state set by one observable action
// (index into the observable alphabet).
func (g *weakGraph) step(set []fsp.State, obs int) []fsp.State {
	mark := map[fsp.State]struct{}{}
	for _, s := range set {
		for _, t := range g.dests(s, obs) {
			mark[fsp.State(t)] = struct{}{}
		}
	}
	out := make([]fsp.State, 0, len(mark))
	for s := range mark {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// colorOf returns the sorted set of partition blocks intersected by set.
func colorOf(p *partition.Partition, set []fsp.State) []int32 {
	mark := map[int32]struct{}{}
	for _, s := range set {
		mark[p.Block(int32(s))] = struct{}{}
	}
	out := make([]int32, 0, len(mark))
	for b := range mark {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func key32(set []int32) string {
	buf := make([]byte, 0, 4*len(set))
	for _, s := range set {
		buf = append(buf, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return string(buf)
}

func keyStates(set []fsp.State) string {
	buf := make([]byte, 0, 4*len(set))
	for _, s := range set {
		buf = append(buf, byte(s), byte(s>>8), byte(s>>16), byte(s>>24))
	}
	return string(buf)
}

// equivalentUnder reports whether p and q have equal languages L_i for every
// block of prev, via a synchronized subset exploration that compares the
// block "color" of the derivative sets after every string.
func (g *weakGraph) equivalentUnder(prev *partition.Partition, p, q fsp.State) bool {
	type pair struct{ a, b []fsp.State }
	start := pair{a: g.clo.Of(p), b: g.clo.Of(q)}
	seen := map[string]bool{}
	queue := []pair{start}
	seen[keyStates(start.a)+"|"+keyStates(start.b)] = true
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		if key32(colorOf(prev, cur.a)) != key32(colorOf(prev, cur.b)) {
			return false
		}
		for obs := 0; obs < g.numObs; obs++ {
			na, nb := g.step(cur.a, obs), g.step(cur.b, obs)
			if len(na) == 0 && len(nb) == 0 {
				continue
			}
			k := keyStates(na) + "|" + keyStates(nb)
			if !seen[k] {
				seen[k] = true
				queue = append(queue, pair{a: na, b: nb})
			}
		}
	}
	return true
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
	part, levels := newWeakGraph(f).ladder(k)
	return part, levels, nil
}

// ladder refines ≈_0 level by level up to ≈_k (k < 0: to the fixed
// point), stopping early once a level repeats. It returns the partition
// and the number of levels that changed it.
func (g *weakGraph) ladder(k int) (*partition.Partition, int) {
	cur := extPartition(g.f)
	level := 0
	for k < 0 || level < k {
		next := refineByLanguages(g, cur)
		level++
		if next.Equal(cur) {
			return cur, level - 1
		}
		cur = next
	}
	return cur, level
}

// refineByLanguages computes the next ≈ level from the previous one: two
// states stay together iff they sit in the same previous block AND their
// per-block languages agree. (≈_{k+1} refines ≈_k, so only same-block pairs
// are compared.)
func refineByLanguages(g *weakGraph, prev *partition.Partition) *partition.Partition {
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
				if g.equivalentUnder(prev, s, r) {
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
	return partition.NewPartition(blockOf)
}

// EquivalentStates reports p ≈_k q for two states of f, deciding the top
// level for this pair alone (see the package comment); the verdict is
// Partition(f, k).Same(p, q). k < 0 means full observational equivalence
// via the ≈_k fixed point (cross-validating the polynomial algorithm in
// the core package).
func EquivalentStates(f *fsp.FSP, p, q fsp.State, k int) (bool, error) {
	if k < 0 {
		part, _, err := Partition(f, k)
		if err != nil {
			return false, err
		}
		return part.Same(int32(p), int32(q)), nil
	}
	if f.Ext(p) != f.Ext(q) {
		return false, nil // every level refines ≈_0, the extension partition
	}
	if k == 0 {
		return true, nil
	}
	g := newWeakGraph(f)
	prev, _ := g.ladder(k - 1)
	return prev.Same(int32(p), int32(q)) && g.equivalentUnder(prev, p, q), nil
}

// Equivalent reports whether the start states of f and g are ≈_k.
func Equivalent(f, g *fsp.FSP, k int) (bool, error) {
	u, off, err := fsp.DisjointUnion(f, g)
	if err != nil {
		return false, fmt.Errorf("kequiv: %w", err)
	}
	return EquivalentStates(u, f.Start(), off+g.Start(), k)
}

// TraceEquivalent reports ≈_1, which by Proposition 2.2.3(b) is language
// (trace) equivalence for standard processes.
func TraceEquivalent(f, g *fsp.FSP) (bool, error) { return Equivalent(f, g, 1) }

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
