package partition

import (
	"fmt"
	"sort"

	"ccs/internal/lts"
)

// Edge is one arc of a function graph: To ∈ f_Label(From).
type Edge struct {
	From  int32
	Label int32
	To    int32
}

// Problem is a self-contained instance of generalized partitioning for the
// tests: an explicit edge list, indexed on every solve.
type Problem struct {
	// N is the number of elements, identified as 0..N-1.
	N int
	// NumLabels is the number of functions; edge labels are 0..NumLabels-1.
	NumLabels int
	// Edges lists all arcs of all function graphs.
	Edges []Edge
	// Initial assigns each element its initial block. Block ids must be
	// dense in 0..p-1. A nil Initial means the single-block partition.
	Initial []int32
}

// Validate checks the instance for out-of-range states, labels and block
// ids.
func (pr *Problem) Validate() error {
	if pr.N <= 0 {
		return fmt.Errorf("partition: N = %d, want > 0", pr.N)
	}
	if pr.Initial != nil && len(pr.Initial) != pr.N {
		return fmt.Errorf("partition: Initial has %d entries, want %d", len(pr.Initial), pr.N)
	}
	maxBlk := int32(0)
	seen := map[int32]bool{}
	for i, b := range pr.Initial {
		if b < 0 {
			return fmt.Errorf("partition: negative block id at element %d", i)
		}
		if b > maxBlk {
			maxBlk = b
		}
		seen[b] = true
	}
	if pr.Initial != nil && int(maxBlk)+1 != len(seen) {
		return fmt.Errorf("partition: initial block ids not dense")
	}
	for _, e := range pr.Edges {
		if e.From < 0 || int(e.From) >= pr.N || e.To < 0 || int(e.To) >= pr.N {
			return fmt.Errorf("partition: edge %v out of range", e)
		}
		if e.Label < 0 || int(e.Label) >= pr.NumLabels {
			return fmt.Errorf("partition: edge %v has bad label", e)
		}
	}
	return nil
}

// initialBlocks returns a copy of the initial block assignment (single
// block when Initial is nil).
func (pr *Problem) initialBlocks() []int32 {
	return initialBlocks(pr.N, pr.Initial)
}

// Index builds the lts refinement index of the instance's edge list, which
// deduplicates repeated edges.
func (pr *Problem) Index() *lts.Index {
	b := lts.NewBuilder(pr.N, pr.NumLabels)
	for _, e := range pr.Edges {
		b.Add(e.From, e.Label, e.To)
	}
	return b.Build()
}

// PaigeTarjan solves the instance with PaigeTarjanIndex.
func (pr *Problem) PaigeTarjan() *Partition {
	return PaigeTarjanIndex(pr.Index(), pr.Initial)
}

// Naive solves the instance with the paper's Lemma 3.2 method, run to the
// fixed point.
func (pr *Problem) Naive() *Partition {
	p, _ := pr.RefineSteps(-1)
	return p
}

// RefineSteps runs at most k naive refinement rounds (see
// RefineStepsIndex). k < 0 means "run to the fixed point".
func (pr *Problem) RefineSteps(k int) (*Partition, int) {
	return RefineStepsIndex(pr.Index(), pr.Initial, k)
}

// RefineSequence returns the full naive refinement ladder (see
// RefineSequenceIndex).
func (pr *Problem) RefineSequence() []*Partition {
	return RefineSequenceIndex(pr.Index(), pr.Initial)
}

// Stable reports whether p satisfies condition (2) of the generalized
// partitioning problem: within every block, all elements reach the same set
// of blocks under every function. It is O(nm).
func (pr *Problem) Stable(p *Partition) bool {
	sigs := pr.signatures(p.blockOf)
	for x := 1; x < pr.N; x++ {
		for y := 0; y < x; y++ {
			if p.blockOf[x] == p.blockOf[y] && sigs[x] != sigs[y] {
				return false
			}
		}
	}
	return true
}

// signatures returns, per element, a canonical string of the set
// {(l, blk[to]) : to ∈ f_l(x)}.
func (pr *Problem) signatures(blk []int32) []string {
	type key struct{ l, b int32 }
	sets := make([]map[key]struct{}, pr.N)
	for i := range sets {
		sets[i] = map[key]struct{}{}
	}
	for _, e := range pr.Edges {
		sets[e.From][key{e.Label, blk[e.To]}] = struct{}{}
	}
	out := make([]string, pr.N)
	for x := 0; x < pr.N; x++ {
		keys := make([]key, 0, len(sets[x]))
		for k := range sets[x] {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].l != keys[j].l {
				return keys[i].l < keys[j].l
			}
			return keys[i].b < keys[j].b
		})
		buf := make([]byte, 0, len(keys)*8)
		for _, k := range keys {
			buf = appendInt32(buf, k.l)
			buf = appendInt32(buf, k.b)
		}
		out[x] = string(buf)
	}
	return out
}

// Refines reports whether p refines q: every p-block is contained in a
// q-block.
func (p *Partition) Refines(q *Partition) bool {
	if len(p.blockOf) != len(q.blockOf) {
		return false
	}
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
