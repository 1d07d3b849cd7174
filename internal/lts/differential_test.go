// Differential tests pitting the CSR-kernel solvers against the legacy
// edge-list path and the naive baseline: every route to the relational
// coarsest partition must agree, on random processes from the gen gallery
// and on the structural edge cases (deadlock states, tau-only processes,
// duplicate arcs, single-state FSPs).
package lts_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/lts"
	"ccs/internal/partition"
)

// legacyIndex flattens an FSP into the edge list the pre-kernel code
// paths built on every call (the old core.problemOf) and indexes it
// through a Builder, with the extension partition of Lemma 3.1.
func legacyIndex(f *fsp.FSP) (*lts.Index, []int32) {
	n := f.NumStates()
	b := lts.NewBuilder(n, f.Alphabet().Len())
	initial := make([]int32, n)
	blockByExt := map[fsp.VarSet]int32{}
	for s := 0; s < n; s++ {
		e := f.Ext(fsp.State(s))
		blk, ok := blockByExt[e]
		if !ok {
			blk = int32(len(blockByExt))
			blockByExt[e] = blk
		}
		initial[s] = blk
		for _, a := range f.Arcs(fsp.State(s)) {
			b.Add(int32(s), int32(a.Act), int32(a.To))
		}
	}
	return b.Build(), initial
}

// naive runs the Lemma 3.2 rounds to the fixed point.
func naive(idx *lts.Index, initial []int32) *partition.Partition {
	p, _ := partition.RefineStepsIndex(idx, initial, -1)
	return p
}

// stable reports whether every block of p is stable: its elements reach
// the same set of (label, block) pairs.
func stable(idx *lts.Index, p *partition.Partition) bool {
	start, label, to := idx.Fwd()
	type move struct{ l, b int32 }
	sig := func(x int) map[move]bool {
		m := map[move]bool{}
		for i := start[x]; i < start[x+1]; i++ {
			m[move{label[i], p.Block(to[i])}] = true
		}
		return m
	}
	rep := map[int32]map[move]bool{}
	for x := 0; x < idx.N(); x++ {
		s, r := sig(x), rep[p.Block(int32(x))]
		if r == nil {
			rep[p.Block(int32(x))] = s
			continue
		}
		if len(s) != len(r) {
			return false
		}
		for m := range s {
			if !r[m] {
				return false
			}
		}
	}
	return true
}

// checkAllSolversAgree solves f's strong-equivalence instance along every
// route and requires identical partitions plus stability of the result.
func checkAllSolversAgree(t *testing.T, f *fsp.FSP) {
	t.Helper()
	legacy, initial := legacyIndex(f)
	idx := lts.FromFSP(f)
	if idx.NumEdges() != f.NumTransitions() {
		t.Fatalf("index has %d edges, FSP has %d transitions", idx.NumEdges(), f.NumTransitions())
	}

	ptIdx := partition.PaigeTarjanIndex(idx, initial)
	for name, p := range map[string]*partition.Partition{
		"naive":                 naive(idx, initial),
		"edge-list PaigeTarjan": partition.PaigeTarjanIndex(legacy, initial),
		"edge-list naive":       naive(legacy, initial),
		"core.StrongPartition":  core.StrongPartition(f),
	} {
		if !ptIdx.Equal(p) {
			t.Errorf("%s: CSR PaigeTarjan found %d blocks, %s found %d — partitions differ on %v",
				f.Name(), ptIdx.NumBlocks(), name, p.NumBlocks(), f)
		}
	}
	if !stable(idx, ptIdx) {
		t.Errorf("%s: CSR PaigeTarjan result is not stable", f.Name())
	}
}

func TestDifferentialRandomProcesses(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(40)
		m := rng.Intn(5 * n)
		acts := 1 + rng.Intn(4)
		tau := []float64{0, 0.2, 0.7}[rng.Intn(3)]
		f := gen.Random(rng, n, m, acts, tau)
		t.Run(fmt.Sprintf("trial-%d-n%d-m%d", trial, n, m), func(t *testing.T) {
			checkAllSolversAgree(t, f)
		})
	}
}

func TestDifferentialRestrictedAndDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		checkAllSolversAgree(t, gen.RandomRestricted(rng, 2+rng.Intn(30), rng.Intn(80), 2))
		checkAllSolversAgree(t, gen.RandomDeterministic(rng, 1+rng.Intn(20), 2))
		checkAllSolversAgree(t, gen.RandomTree(rng, 1+rng.Intn(20), 3))
	}
}

func TestDifferentialGalleryAndChains(t *testing.T) {
	for _, pair := range gen.Fig2Gallery() {
		checkAllSolversAgree(t, pair.P)
		checkAllSolversAgree(t, pair.Q)
	}
	checkAllSolversAgree(t, gen.Chain(17))
	checkAllSolversAgree(t, gen.Cycle(12))
	checkAllSolversAgree(t, gen.SplitterChain(33))
}

// TestDifferentialDeadlockStates exercises states with no outgoing arcs:
// the signature pre-partition must group them, and the reverse index must
// still drive splits against them.
func TestDifferentialDeadlockStates(t *testing.T) {
	b := fsp.NewBuilder("deadlocks")
	b.AddStates(6)
	b.ArcName(0, "a", 1)
	b.ArcName(0, "a", 2)
	b.ArcName(1, "b", 3) // 3 is a dead end
	b.ArcName(2, "b", 4)
	b.ArcName(4, "a", 5) // 5 is a dead end
	b.Accept(0)
	b.Accept(3)
	b.Accept(5)
	checkAllSolversAgree(t, b.MustBuild())
}

// TestDifferentialTauOnly exercises a process whose every arc is tau
// (strong equivalence treats tau as an ordinary label; weak equivalence
// collapses the lot).
func TestDifferentialTauOnly(t *testing.T) {
	b := fsp.NewBuilder("tau-only")
	b.AddStates(5)
	b.ArcName(0, fsp.TauName, 1)
	b.ArcName(1, fsp.TauName, 2)
	b.ArcName(2, fsp.TauName, 0)
	b.ArcName(3, fsp.TauName, 4)
	for s := fsp.State(0); s < 5; s++ {
		b.Accept(s)
	}
	f := b.MustBuild()
	checkAllSolversAgree(t, f)

	// All states are weakly equivalent to 0 except the 3->4 component,
	// which is also all-accepting and tau-cyclic-free; the exact classes
	// are cross-checked between the polynomial algorithm and the kernel.
	wp, err := core.WeakPartition(f)
	if err != nil {
		t.Fatal(err)
	}
	if wp.NumBlocks() != 1 {
		t.Errorf("tau-only all-accepting process has %d weak classes, want 1", wp.NumBlocks())
	}
}

// TestDifferentialDuplicateArcs feeds the Builder duplicated edges: the
// kernel dedupes them, and the verdicts must match a clean instance.
func TestDifferentialDuplicateArcs(t *testing.T) {
	edges := [][3]int32{{0, 0, 1}, {1, 1, 2}, {2, 0, 3}, {3, 1, 0}}
	clean, dup := lts.NewBuilder(4, 2), lts.NewBuilder(4, 2)
	for _, e := range edges {
		clean.Add(e[0], e[1], e[2])
		for i := 0; i < 3; i++ { // triplicate every edge
			dup.Add(e[0], e[1], e[2])
		}
	}
	cleanIdx, dupIdx := clean.Build(), dup.Build()
	if got := dupIdx.NumEdges(); got != len(edges) {
		t.Fatalf("duplicated instance indexed %d edges, want %d after dedup", got, len(edges))
	}
	pClean := partition.PaigeTarjanIndex(cleanIdx, nil)
	pDup := partition.PaigeTarjanIndex(dupIdx, nil)
	if !pClean.Equal(pDup) {
		t.Errorf("duplicate arcs changed the partition: %d vs %d blocks", pClean.NumBlocks(), pDup.NumBlocks())
	}
	if !pDup.Equal(naive(dupIdx, nil)) {
		t.Errorf("naive and Paige-Tarjan disagree on the duplicated instance")
	}
}

// TestDifferentialSingleState covers the 1-state FSPs with and without a
// self-loop.
func TestDifferentialSingleState(t *testing.T) {
	plain := fsp.NewBuilder("one")
	plain.AddStates(1)
	checkAllSolversAgree(t, plain.MustBuild())

	loop := fsp.NewBuilder("one-loop")
	loop.AddStates(1)
	loop.ArcName(0, "a", 0)
	loop.Accept(0)
	checkAllSolversAgree(t, loop.MustBuild())
}

// TestPairQueryExtensionKeyCollision pins the cross-process extension
// matching: a variable literally named "a,b" must not collide with the
// two-variable extension {a, b} (their rendered forms are identical, so a
// string-format key would wrongly equate the start states).
func TestPairQueryExtensionKeyCollision(t *testing.T) {
	fb := fsp.NewBuilder("weird-var")
	fb.AddStates(1)
	fb.Extend(0, "a,b")
	f := fb.MustBuild()

	gb := fsp.NewBuilder("two-vars")
	gb.AddStates(1)
	gb.Extend(0, "a", "b")
	g := gb.MustBuild()

	eq, err := core.StrongEquivalent(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("states with extensions {a,b} (one variable named \"a,b\") and {a, b} (two variables) reported equivalent")
	}
	// Sanity: identically-named single variables still match across tables.
	hb := fsp.NewBuilder("same-var")
	hb.AddStates(1)
	hb.Extend(0, "a,b")
	h := hb.MustBuild()
	eq, err = core.StrongEquivalent(f, h)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("identical single-variable extensions failed to match across processes")
	}
}

// TestDifferentialPairQueries cross-validates the index-union pair path
// (core.StrongEquivalent, which never re-flattens) against the state-level
// check inside an FSP-level disjoint union.
func TestDifferentialPairQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		p := gen.Random(rng, 2+rng.Intn(12), rng.Intn(30), 2, 0.3)
		q := gen.Random(rng, 2+rng.Intn(12), rng.Intn(30), 2, 0.3)

		viaIndex, err := core.StrongEquivalent(p, q)
		if err != nil {
			t.Fatal(err)
		}
		u, off, err := fsp.DisjointUnion(p, q)
		if err != nil {
			t.Fatal(err)
		}
		pu, qu := int32(p.Start()), int32(off+q.Start())
		viaUnion := core.StrongPartition(u).Same(pu, qu)
		if viaIndex != viaUnion {
			t.Errorf("trial %d: strong verdict differs, index-union=%v fsp-union=%v", trial, viaIndex, viaUnion)
		}

		weakIdx, err := core.WeakEquivalent(p, q)
		if err != nil {
			t.Fatal(err)
		}
		weakPart, err := core.WeakPartition(u)
		if err != nil {
			t.Fatal(err)
		}
		weakUnion := weakPart.Same(pu, qu)
		if weakIdx != weakUnion {
			t.Errorf("trial %d: weak verdict differs, index-union=%v fsp-union=%v", trial, weakIdx, weakUnion)
		}
	}
}
