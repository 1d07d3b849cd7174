package core

import (
	"fmt"
	"math/bits"

	"ccs/internal/fsp"
	"ccs/internal/partition"
)

// QuotientStrong returns the quotient of f modulo strong equivalence: one
// state per equivalence class, with an arc (B, a, C) whenever some (hence,
// by bisimilarity, every) member of B has an a-arc into C. The quotient is
// the state-minimal process strongly equivalent to f, the CCS analogue of
// DFA minimization. The returned map sends each original state to its class.
func QuotientStrong(f *fsp.FSP) (*fsp.FSP, []fsp.State, error) {
	p := StrongPartition(f)
	q, m, err := quotient(f, p)
	if err != nil {
		return nil, nil, fmt.Errorf("strong quotient: %w", err)
	}
	return q, m, nil
}

// quotient collapses f along an equivalence partition that is a strong
// bisimulation. Every class member has the same arcs up to classes, so a
// single representative per class suffices.
func quotient(f *fsp.FSP, p *partition.Partition) (*fsp.FSP, []fsp.State, error) {
	b := fsp.NewBuilderWith(f.Name()+"/~", f.Alphabet().Clone(), f.Vars().Clone())
	b.AddStates(p.NumBlocks())
	b.SetStart(fsp.State(p.Block(int32(f.Start()))))

	reps := make([]fsp.State, p.NumBlocks())
	for i := range reps {
		reps[i] = fsp.None
	}
	mapping := make([]fsp.State, f.NumStates())
	for s := 0; s < f.NumStates(); s++ {
		blk := p.Block(int32(s))
		mapping[s] = fsp.State(blk)
		if reps[blk] == fsp.None {
			reps[blk] = fsp.State(s)
		}
	}
	for blk, rep := range reps {
		for _, a := range f.Arcs(rep) {
			b.Arc(fsp.State(blk), a.Act, fsp.State(p.Block(int32(a.To))))
		}
		for _, id := range f.Ext(rep).IDs() {
			b.Extend(fsp.State(blk), f.Vars().Name(id))
		}
	}
	q, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return q, mapping, nil
}

// QuotientWeak returns a process observationally equivalent to f with one
// state per ≈-class. Each class's row is its representative's P-hat row
// read through the partition — weak sigma-derivatives become sigma-arcs
// and weak epsilon derivatives that leave the class become tau-arcs — and
// is read off the ≈-kernel's final block sets (weak.go), so P-hat is not
// built. The result is tau-minimal in the sense that tau arcs only connect
// distinct classes, and weak-closed: its sigma-arcs are all of its weak
// sigma-derivatives and its tau-arcs are transitively closed up to the
// diagonal, so lts.FromWeakClosed indexes its P-hat without saturating it.
func QuotientWeak(f *fsp.FSP) (*fsp.FSP, []fsp.State, error) {
	q, m, err := weakQuotient(f, "/≈", false)
	if err != nil {
		return nil, nil, fmt.Errorf("weak quotient: %w", err)
	}
	return q, m, nil
}

// QuotientCongruence returns a process observation-congruent (≈ᶜ) to f,
// derived like QuotientWeak from the ≈-kernel's final block sets. It is
// the ≈-quotient except possibly at the root: merging the start
// state into its ≈-class can erase an initial tau (the tau·a ≈ a but
// tau·a ≉ᶜ a separation), so when the start has a direct tau move into
// its own class the quotient root gets a tau self-loop, which restores
// the strengthened root condition without adding a state. The result
// therefore has exactly one state per ≈-class — it is ≈ᶜ-minimal: no two
// distinct output states are related by ≈ᶜ (they are not even ≈, being
// distinct classes, and ≈ᶜ ⊆ ≈). Like the ≈-quotient it is weak-closed
// (the self-loop is a tau-arc on the diagonal).
//
// ≈ᶜ is a congruence for every CCS operator, so the output can replace f
// inside any compose.Network (composition, restriction, relabeling) for
// any equivalence coarser than ≈ᶜ — the soundness fact behind the
// engine's minimize-then-compose pipeline.
func QuotientCongruence(f *fsp.FSP) (*fsp.FSP, []fsp.State, error) {
	q, m, err := weakQuotient(f, "/≈ᶜ", true)
	if err != nil {
		return nil, nil, fmt.Errorf("congruence quotient: %w", err)
	}
	return q, m, nil
}

// weakQuotient collapses f along the ≈-partition of its states. With
// rootFix set it additionally preserves observation congruence:
//
//   - If the start state p0 has no direct tau into its own ≈-class, the
//     plain quotient start Q0 already satisfies the root condition: every
//     tau arc of Q0 comes from a representative's epsilon derivative that
//     leaves the class, which p0 matches with a nonempty tau path, and a
//     stable p0 yields a stable Q0 (p0 could not leave its class silently).
//   - Otherwise Q0 gets a tau self-loop: p0's in-class tau is matched by
//     Q0 --tau--> Q0 (nonempty, derivative Q0 ≈ p0's in-class derivative),
//     and the loop itself is matched by that same in-class tau of p0.
//     Hence Q0 ≈ᶜ p0, at zero extra states. The loop is not always
//     needed: mutually eps-reachable states need not be ≈ once extensions
//     differ, so a nonempty tau cycle Q0 → Q1 → Q0 through another class
//     can already witness the root condition. (With arc 0 tau 2, arc 0
//     tau 3, arc 2 tau 0 and ext(2) = {x}, states 0 and 2 reach each
//     other silently but are distinct classes.) The output keeps one
//     state per ≈-class either way, but the loop makes the ≈ᶜ-quotient
//     non-canonical: two ≈ᶜ processes can get quotients that differ only
//     by a redundant root loop. Whoever compares ≈ᶜ-quotients must read
//     the root by whether it lies on a tau cycle, as
//     ObservationCongruentClosed and DecideSignatures do, not by the loop.
//
// Every row is born in the (Act, To) order an FSP stores, so Build sorts
// nothing: the tau run leads the row (Tau is action 0) and the sigma runs
// follow in action order, keeping their action ids (the quotient's
// alphabet is a clone of f's), each run in class order. Off the kernel's
// sets a run is one block bitset enumerated in order. Off FSP rows (f
// itself when it has no tau arc, or its saturation after the kernel's
// fallback) the epsilon run is the last run of a P-hat row, epsilon being
// interned last, and each run's target classes are collected in one block
// bitset, which also drops duplicates.
func weakQuotient(f *fsp.FSP, suffix string, rootFix bool) (*fsp.FSP, []fsp.State, error) {
	p, _, err := weakPartition(f, -1)
	if err != nil {
		return nil, nil, err
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
	mapping := make([]fsp.State, f.NumStates())
	for s := 0; s < f.NumStates(); s++ {
		blk := p.Block(int32(s))
		mapping[s] = fsp.State(blk)
		if reps[blk] == fsp.None {
			reps[blk] = fsp.State(s)
		}
	}
	var targets *blockSet
	if p.r == nil {
		targets = newBlockSet(p.NumBlocks())
	}
	for blk, rep := range reps {
		// The root class's self-loop restores the root condition in place.
		// In-class epsilons are dropped, so it is the root class's only
		// tau back to itself.
		at, loop := fsp.State(blk), rootTau && int32(blk) == rootBlk
		if p.r != nil {
			p.r.emitRow(b, at, rep, loop)
		} else {
			emitArcRow(b, at, p.rows.Arcs(rep), p.eps, loop, p.Partition, targets)
		}
		for _, id := range f.Ext(rep).IDs() {
			b.Extend(at, f.Vars().Name(id))
		}
	}
	q, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return q, mapping, nil
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
