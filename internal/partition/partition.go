// Package partition solves the generalized partitioning problem of
// Kanellakis & Smolka (Section 3), also known as the relational coarsest
// partition problem (Paige & Tarjan 1987).
//
// Input: a set S of n elements, an initial partition pi of S, and k
// functions f_l : S -> 2^S given as labelled directed graphs. Output: the
// coarsest partition pi' consistent with pi such that for any two elements
// a, b of the same block and every block E_j and function f_l,
//
//	f_l(a) ∩ E_j ≠ ∅   iff   f_l(b) ∩ E_j ≠ ∅.
//
// Two algorithms are provided:
//
//   - RefineStepsIndex: the paper's Lemma 3.2 method — repeatedly split
//     blocks by the set of blocks each element reaches, until stable, or
//     for at most k rounds, the k-limited equivalence ladder of
//     Definition 2.2.2. O(nm) rounds-times-work bound.
//   - PaigeTarjanIndex: the "process the smaller half" three-way splitting
//     algorithm of Paige & Tarjan, generalized to labelled relations,
//     running in O(m log n) splitter work. This is the algorithm behind
//     Theorem 3.1.
//
// Both solvers consume a prebuilt lts.Index — the repository's shared CSR
// refinement kernel — so hot-path callers (core, hml, the engine) hand in
// a cached index and pay zero per-call edge-slice allocation.
//
// The package is agnostic to FSPs: callers map actions to dense labels.
package partition

// Partition is the result: a block id per element, with ids dense in
// 0..NumBlocks-1.
type Partition struct {
	blockOf []int32
	num     int
}

// NewPartition adopts a block-of array, densifying the block ids.
func NewPartition(blockOf []int32) *Partition {
	p := &Partition{blockOf: blockOf}
	p.densify()
	return p
}

// Block returns the block id of element x.
func (p *Partition) Block(x int32) int32 { return p.blockOf[x] }

// Same reports whether two elements share a block.
func (p *Partition) Same(a, b int32) bool { return p.blockOf[a] == p.blockOf[b] }

// NumBlocks returns the number of blocks.
func (p *Partition) NumBlocks() int { return p.num }

// Len returns the number of elements.
func (p *Partition) Len() int { return len(p.blockOf) }

// Blocks materializes the blocks as sorted element lists.
func (p *Partition) Blocks() [][]int32 {
	out := make([][]int32, p.num)
	for x, b := range p.blockOf {
		out[b] = append(out[b], int32(x))
	}
	return out
}

// Equal reports whether two partitions induce the same equivalence relation.
func (p *Partition) Equal(q *Partition) bool {
	if len(p.blockOf) != len(q.blockOf) || p.num != q.num {
		return false
	}
	// Same number of blocks plus a function p-block -> q-block suffices.
	fwd := make([]int32, p.num)
	for i := range fwd {
		fwd[i] = -1
	}
	for x := range p.blockOf {
		pb, qb := p.blockOf[x], q.blockOf[x]
		if fwd[pb] == -1 {
			fwd[pb] = qb
		} else if fwd[pb] != qb {
			return false
		}
	}
	return true
}

func (p *Partition) densify() {
	remap := map[int32]int32{}
	for i, b := range p.blockOf {
		nb, ok := remap[b]
		if !ok {
			nb = int32(len(remap))
			remap[b] = nb
		}
		p.blockOf[i] = nb
	}
	p.num = len(remap)
}

func appendInt32(buf []byte, v int32) []byte {
	return append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}
