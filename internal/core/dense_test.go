package core

import (
	"math/bits"

	"ccs/internal/fsp"
	"ccs/internal/partition"
)

// The dense quotient emitters that the reduced quotient replaced, kept as
// the oracle: denseQuotient is the former weakQuotient, which wrote every
// representative's P-hat row read through the partition — the weak-closed
// quotient, with every weak derivative as an arc.

// denseQuotient collapses f along its ≈-partition into the weak-closed
// quotient, with a root tau self-loop under rootFix when the start has a
// direct tau into its own class.
func denseQuotient(f *fsp.FSP, suffix string, rootFix bool) (*fsp.FSP, error) {
	p, _, err := weakPartition(f, -1)
	if err != nil {
		return nil, err
	}

	rootBlk := p.Block(int32(f.Start()))
	rootTau := false
	if rootFix {
		for _, t := range f.Dest(f.Start(), fsp.Tau) {
			if p.Block(int32(t)) == rootBlk {
				rootTau = true
				break
			}
		}
	}

	b := fsp.NewBuilderWith(f.Name()+suffix, f.Alphabet().Clone(), f.Vars().Clone())
	b.AddStates(p.NumBlocks())
	b.SetStart(fsp.State(rootBlk))

	reps := make([]fsp.State, p.NumBlocks())
	for i := range reps {
		reps[i] = fsp.None
	}
	for s := 0; s < f.NumStates(); s++ {
		if blk := p.Block(int32(s)); reps[blk] == fsp.None {
			reps[blk] = fsp.State(s)
		}
	}
	var targets *blockSet
	if p.r == nil {
		targets = newBlockSet(p.NumBlocks())
	}
	for blk, rep := range reps {
		// In-class epsilons are dropped, so the root loop is the root
		// class's only tau back to itself.
		at, loop := fsp.State(blk), rootTau && int32(blk) == rootBlk
		if p.r != nil {
			emitRow(p.r, b, at, rep, loop)
		} else {
			emitArcRow(b, at, p.rows.Arcs(rep), p.eps, loop, p.Partition, targets)
		}
		for _, id := range f.Ext(rep).IDs() {
			b.Extend(at, f.Vars().Name(id))
		}
	}
	return b.Build()
}

// emitRow writes the quotient row of class blk, represented by rep, off
// the final round's sets: tau arcs to rep's ε-set but blk itself (the
// self-loop only when loop is set), then each action's arcs to its
// σ-set, in (action, class) order.
func emitRow(r *weakRounds, b *fsp.Builder, blk, rep fsp.State, loop bool) {
	w := r.words
	row := r.sets[int(r.scc.Of[rep])*(1+len(r.acts))*w:]
	forBits(row[:w], func(to int32) {
		if fsp.State(to) != blk || loop {
			b.Arc(blk, fsp.Tau, fsp.State(to))
		}
	})
	for i, act := range r.acts {
		forBits(row[(1+i)*w:(2+i)*w], func(to int32) { b.Arc(blk, act, fsp.State(to)) })
	}
}

func forBits(words []uint64, yield func(int32)) {
	for i, x := range words {
		for ; x != 0; x &= x - 1 {
			yield(int32(i<<6 + bits.TrailingZeros64(x)))
		}
	}
}

// emitArcRow writes the quotient row of class blk from its representative's
// FSP row arcs, whose trailing eps run holds the weak epsilon derivatives:
// tau arcs to the classes it leaves for (plus the self-loop when loop is
// set), then each sigma run's target classes.
func emitArcRow(b *fsp.Builder, blk fsp.State, arcs []fsp.Arc, eps fsp.Action, loop bool, p *partition.Partition, targets *blockSet) {
	k := len(arcs)
	for k > 0 && arcs[k-1].Act == eps {
		k--
	}
	for _, a := range arcs[k:] {
		if to := p.Block(int32(a.To)); to != int32(blk) {
			targets.add(to)
		}
	}
	if loop {
		targets.add(int32(blk))
	}
	targets.flush(func(to int32) { b.Arc(blk, fsp.Tau, fsp.State(to)) })
	for i := 0; i < k; {
		act := arcs[i].Act
		for ; i < k && arcs[i].Act == act; i++ {
			targets.add(p.Block(int32(arcs[i].To)))
		}
		targets.flush(func(to int32) { b.Arc(blk, act, fsp.State(to)) })
	}
}

// blockSet collects the target blocks of one action run as a bitset over
// the blocks; flush enumerates them in increasing order and empties the
// set, touching only the words the run used.
type blockSet struct {
	words  []uint64
	lo, hi int // the words in use are [lo, hi); empty when lo >= hi
}

func newBlockSet(n int) *blockSet {
	w := (n + 63) / 64
	return &blockSet{words: make([]uint64, w), lo: w, hi: 0}
}

func (s *blockSet) add(blk int32) {
	w := int(blk >> 6)
	s.words[w] |= 1 << (uint(blk) & 63)
	s.lo = min(s.lo, w)
	s.hi = max(s.hi, w+1)
}

func (s *blockSet) flush(yield func(blk int32)) {
	for w := s.lo; w < s.hi; w++ {
		for x := s.words[w]; x != 0; x &= x - 1 {
			yield(int32(w<<6 + bits.TrailingZeros64(x)))
		}
		s.words[w] = 0
	}
	s.lo, s.hi = len(s.words), 0
}
