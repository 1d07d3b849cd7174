// Package core implements the paper's equivalence-checking algorithms:
//
//   - Strong equivalence (Definition 2.2.3) via the Lemma 3.1 reduction to
//     generalized partitioning, solved by Paige-Tarjan in the
//     O(m log n + n) bound of Theorem 3.1.
//   - Observational equivalence (Definition 2.2.1/2.2.2 via Proposition
//     2.2.1: the limited and unlimited notions coincide). Theorem 4.1(a)
//     decides it as strong equivalence on the saturated FSP P-hat; the
//     kernel of weak.go computes the same partition as the fixpoint of
//     the Lemma 3.2 rounds on P-hat, run per tau-SCC on block bitsets
//     without building P-hat, and saturates only as a bounded fallback.
//   - The k-limited observational equivalence ladder ≃_k of Definition
//     2.2.2: the first k of those rounds.
//   - Quotients (state minimization) modulo strong and observational
//     equivalence.
//
// All refinement flows through the shared CSR kernel of internal/lts: the
// Lemma 3.1 reduction is realized as lts.FromFSP plus an
// extension-grouped initial partition, and the solvers in
// internal/partition refine directly on the index. States of two
// different processes are compared by forming the disjoint union of their
// indexes (lts.DisjointUnion, exactly as licensed by the remark in the
// proof of Lemma 3.1). Two coarsest quotients are compared without a
// solve when their signature records settle the pair (signature.go).
package core

import (
	"fmt"
	"math"
	"sort"

	"ccs/internal/fsp"
	"ccs/internal/lts"
	"ccs/internal/partition"
)

// IndexOf builds the refinement index of f: the Lemma 3.1 encoding of the
// transition relation with one function per action (tau, if present, is
// treated as an ordinary label, which is exactly strong equivalence;
// indexing a saturated P-hat, which has no tau, gives observational
// equivalence).
// The index is immutable and safe to cache and share across goroutines.
func IndexOf(f *fsp.FSP) *lts.Index { return lts.FromFSP(f) }

// ExtInitial is the initial partition of Lemma 3.1: states grouped by
// extension, with dense block ids in state-scan order. It pairs with
// IndexOf to form a complete refinement instance; hml and the benchmark
// harness reuse it so every layer encodes the reduction identically.
func ExtInitial(f *fsp.FSP) []int32 {
	n := f.NumStates()
	initial := make([]int32, n)
	blockByExt := map[fsp.VarSet]int32{}
	for s := 0; s < n; s++ {
		e := f.Ext(fsp.State(s))
		b, ok := blockByExt[e]
		if !ok {
			b = int32(len(blockByExt))
			blockByExt[e] = b
		}
		initial[s] = b
	}
	return initial
}

// pairInstance assembles the disjoint-union instance for a cross-process
// query: the union of the two processes' indexes plus the
// extension-grouped initial partition, with extensions matched by
// variable name (the two processes may have been built against different
// variable tables).
func pairInstance(f, g *fsp.FSP) (*lts.Index, []int32, int32, error) {
	u, off, err := lts.DisjointUnion(IndexOf(f), IndexOf(g))
	if err != nil {
		return nil, nil, 0, err
	}
	initial := make([]int32, u.N())
	blockByExt := map[string]int32{}
	// Variable names are interned into shared dense ids and extensions
	// keyed by their sorted id encoding — collision-free for arbitrary
	// names, exactly like fsp.DisjointUnion's name interning (a rendered
	// string key could collide, e.g. a variable literally named "a,b"
	// against the two-variable extension {a, b}).
	nameID := map[string]int32{}
	var scratch []int32
	var buf []byte
	assign := func(p *fsp.FSP, base int32) {
		for s := 0; s < p.NumStates(); s++ {
			scratch = scratch[:0]
			for _, id := range p.Ext(fsp.State(s)).IDs() {
				nm := p.Vars().Name(id)
				d, ok := nameID[nm]
				if !ok {
					d = int32(len(nameID))
					nameID[nm] = d
				}
				scratch = append(scratch, d)
			}
			sort.Slice(scratch, func(i, j int) bool { return scratch[i] < scratch[j] })
			buf = buf[:0]
			for _, d := range scratch {
				buf = append(buf, byte(d), byte(d>>8), byte(d>>16), byte(d>>24))
			}
			b, ok := blockByExt[string(buf)]
			if !ok {
				b = int32(len(blockByExt))
				blockByExt[string(buf)] = b
			}
			initial[base+int32(s)] = b
		}
	}
	assign(f, 0)
	assign(g, off)
	return u, initial, off, nil
}

// StrongPartition computes the strong-equivalence partition of f's states:
// two states share a block iff they are strongly equivalent (p ~ q). This is
// the Lemma 3.1 reduction, solved in the bound of Theorem 3.1.
func StrongPartition(f *fsp.FSP) *partition.Partition {
	return partition.PaigeTarjanIndex(IndexOf(f), ExtInitial(f))
}

// StrongEquivalent reports whether the start states of f and g are strongly
// equivalent, by one solve on the disjoint union of their indexes.
func StrongEquivalent(f, g *fsp.FSP) (bool, error) {
	u, initial, off, err := pairInstance(f, g)
	if err != nil {
		return false, fmt.Errorf("strong equivalence: %w", err)
	}
	p := partition.PaigeTarjanIndex(u, initial)
	return p.Same(int32(f.Start()), off+int32(g.Start())), nil
}

// WeakPartition computes the observational-equivalence partition of f's
// states (p ≈ q): the fixpoint of the Lemma 3.2 rounds on P-hat, run by
// the kernel of weak.go without building P-hat. It is the partition that
// the Theorem 4.1(a) algorithm — saturate, then solve strong equivalence —
// computes.
func WeakPartition(f *fsp.FSP) (*partition.Partition, error) {
	p, _, err := weakPartition(f, -1)
	if err != nil {
		return nil, fmt.Errorf("observational equivalence: %w", err)
	}
	return p.Partition, nil
}

// WeakEquivalent reports whether the start states of f and g are
// observationally equivalent, by one ≈-partition of their disjoint union.
func WeakEquivalent(f, g *fsp.FSP) (bool, error) {
	u, off, err := fsp.DisjointUnion(f, g)
	if err != nil {
		return false, fmt.Errorf("observational equivalence: %w", err)
	}
	p, _, err := weakPartition(u, -1)
	if err != nil {
		return false, fmt.Errorf("observational equivalence: %w", err)
	}
	return p.Same(int32(f.Start()), int32(off+g.Start())), nil
}

// LimitedPartition computes the k-limited observational equivalence ≃_k of
// Definition 2.2.2: the partition after exactly k Lemma 3.2 rounds on
// P-hat, starting from the extension partition (≃_0), run by the kernel
// of weak.go. k < 0 runs to the fixed point, which is ≃ and hence ≈ by
// Proposition 2.2.1(c). The second result is the number of rounds that
// changed the partition.
func LimitedPartition(f *fsp.FSP, k int) (*partition.Partition, int, error) {
	if k < 0 {
		k = math.MaxInt // the fixed point, with its round count
	}
	p, rounds, err := weakPartition(f, k)
	if err != nil {
		return nil, 0, fmt.Errorf("limited equivalence: %w", err)
	}
	return p.Partition, rounds, nil
}

// LimitedEquivalentStates reports p ≃_k q for two states of f.
func LimitedEquivalentStates(f *fsp.FSP, p, q fsp.State, k int) (bool, error) {
	part, _, err := LimitedPartition(f, k)
	if err != nil {
		return false, err
	}
	return part.Same(int32(p), int32(q)), nil
}

// LimitedEquivalent reports whether the start states of f and g are
// k-limited observationally equivalent (≃_k), by k rounds on their
// disjoint union.
func LimitedEquivalent(f, g *fsp.FSP, k int) (bool, error) {
	u, off, err := fsp.DisjointUnion(f, g)
	if err != nil {
		return false, fmt.Errorf("limited equivalence: %w", err)
	}
	return LimitedEquivalentStates(u, f.Start(), off+g.Start(), k)
}
