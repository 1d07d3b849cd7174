package partition

import (
	"sort"

	"ccs/internal/lts"
)

// RefineStepsIndex runs at most k refinement rounds of the paper's Lemma 3.2
// method and returns the resulting partition together with the number of
// rounds that actually changed the partition. k < 0 means "run to the fixed
// point". In each round, every block is split so that two elements stay
// together iff, for every function f_l, they reach the same set of blocks.
// There are at most n-1 splitting rounds and each round costs O(n + m)
// signature work, giving the O(nm) bound of Lemma 3.2.
//
// The rounds correspond exactly to the k-limited observational equivalence
// ladder of Definition 2.2.2 when the index encodes the weak single-step
// relations: after round i the partition is the ≃_i equivalence. So the
// method is deliberately not seeded with the index's signature
// pre-partition, and it doubles as the baseline the Paige-Tarjan kernel is
// differentially tested against.
func RefineStepsIndex(idx *lts.Index, initial []int32, k int) (*Partition, int) {
	blk := initialBlocks(idx.N(), initial)
	rounds := 0
	for k < 0 || rounds < k {
		next, changed := refineOnce(idx, blk)
		if !changed {
			break
		}
		blk = next
		rounds++
	}
	return NewPartition(blk), rounds
}

// RefineSequenceIndex returns the full refinement ladder pi_0, pi_1, ...,
// pi_fix of the naive method: pi_0 is the initial partition and pi_{i+1}
// refines pi_i by one splitting round. The last element is the fixed point
// (the solution). Used by the k-limited equivalence ladder and by
// distinguishing-formula extraction, which needs the level at which two
// elements separate.
func RefineSequenceIndex(idx *lts.Index, initial []int32) []*Partition {
	blk := initialBlocks(idx.N(), initial)
	cp := make([]int32, len(blk))
	copy(cp, blk)
	seq := []*Partition{NewPartition(cp)}
	for {
		next, changed := refineOnce(idx, blk)
		if !changed {
			return seq
		}
		blk = next
		cp = make([]int32, len(blk))
		copy(cp, blk)
		seq = append(seq, NewPartition(cp))
	}
}

// initialBlocks copies the initial block assignment (single block when
// initial is nil).
func initialBlocks(n int, initial []int32) []int32 {
	blk := make([]int32, n)
	if initial != nil {
		copy(blk, initial)
	}
	return blk
}

// refineOnce performs one global splitting round, returning the refined
// block assignment and whether anything changed. Signatures are computed
// straight off the forward CSR: each state's span is scanned into (label,
// target-block) pairs, sorted and deduplicated — no per-element set maps.
func refineOnce(idx *lts.Index, blk []int32) ([]int32, bool) {
	n := idx.N()
	fwdStart, fwdLabel, fwdTo := idx.Fwd()
	type pair struct{ l, b int32 }
	var scratch []pair
	var buf []byte

	type groupKey struct {
		blk int32
		sig string
	}
	next := make([]int32, n)
	ids := make(map[groupKey]int32, n)
	for x := 0; x < n; x++ {
		scratch = scratch[:0]
		for i := fwdStart[x]; i < fwdStart[x+1]; i++ {
			scratch = append(scratch, pair{l: fwdLabel[i], b: blk[fwdTo[i]]})
		}
		// The span is label-sorted already; only ties need the block order.
		sort.Slice(scratch, func(i, j int) bool {
			if scratch[i].l != scratch[j].l {
				return scratch[i].l < scratch[j].l
			}
			return scratch[i].b < scratch[j].b
		})
		buf = buf[:0]
		last := pair{l: -1, b: -1}
		for _, p := range scratch {
			if p != last {
				buf = appendInt32(buf, p.l)
				buf = appendInt32(buf, p.b)
				last = p
			}
		}
		gk := groupKey{blk: blk[x], sig: string(buf)}
		id, ok := ids[gk]
		if !ok {
			id = int32(len(ids))
			ids[gk] = id
		}
		next[x] = id
	}
	// Change detection: the refinement strictly increases the block count
	// or keeps the partition identical (refinement never merges).
	oldBlocks := map[int32]struct{}{}
	for _, b := range blk {
		oldBlocks[b] = struct{}{}
	}
	return next, len(ids) != len(oldBlocks)
}
