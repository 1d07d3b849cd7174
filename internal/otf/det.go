package otf

// This file is the lazily determinized spec side of the game: the subset
// construction applied on demand to a nondeterministic (or, for the weak
// relations, tau-bearing) specification. Spec "states" become hash-consed
// tau-closed subsets — word-packed bitset rows over the spec's states,
// built by OR-ing fsp.Closure rows — interned the first time the game
// needs them, so only subsets coreachable with product states are ever
// constructed: the determinized automaton, exponential in the worst
// case, is materialized only where the product actually walks.
//
// Determinization preserves traces, not bisimilarity, so every interned
// subset is checked for homogeneity: all members must fall into one
// block of the spec's own equivalence partition (≈ for the weak games,
// ~ for the strong game), computed once up front on the small spec by
// the core solvers. A homogeneous subset behaves like any single member
// up to the relation — the spec is determinate along the explored
// traces, in Milner's sense — which makes the forced subset answer
// interchangeable with the spec's nondeterministic choices and the game
// verdict exact. A heterogeneous subset means the nondeterminism is
// essential; the game aborts with an *UndecidedError rather than guess
// (see the package comment for the soundness argument).

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"ccs/internal/compose"
	"ccs/internal/core"
	"ccs/internal/fsp"
)

// subsetRec is one interned spec subset with its per-subset tables:
// the membership row, the sorted member list, and the enabled/extension
// bitsets (unions over the members; homogeneity makes the extension
// union equal every member's extension).
type subsetRec struct {
	row     []uint64
	members []int32
	enabled []uint64
	ext     []uint64
}

// detSpec implements specSide by the lazy subset construction.
type detSpec struct {
	rel  Rel
	weak bool // tau-closed subsets (Weak, Congruence)

	clo      fsp.Closure
	rowWords int

	// Per-spec-state tables in the session's dense label space: steps
	// sorted by (label, target) for binary-search spans, enabled rows
	// (tau bit only for the strong game), extension rows, and the
	// equivalence block of the homogeneity partition.
	steps     [][]compose.Step
	stEnabled []uint64
	stExt     [][]uint64
	block     []int32

	numLabels int
	words     int

	rootSubset  int32
	rootTauID   int32
	specRootTau bool

	// The subset intern table and the (subset, label) delta memo, shared
	// by all workers: mu guards both; heteroReason records the first
	// heterogeneous subset for the undecided diagnostic.
	mu           sync.RWMutex
	ids          map[string]int32
	subsets      []subsetRec
	deltas       map[int64]int32
	heteroReason atomic.Pointer[string]
}

// newDetSpec builds the determinized side: the spec's equivalence
// partition, its dense-label transition spans, and the interned root
// subset (the tau-closure of the start state for the weak games). An
// error here means the game cannot be played at all — the root subset is
// already heterogeneous (UndecidedError) or the spec defeats the
// partition solver.
func newDetSpec(spec *fsp.FSP, rel Rel, specLabel []int32, stateExt [][]uint64, numLabels, words int) (*detSpec, error) {
	n := spec.NumStates()
	d := &detSpec{
		rel:       rel,
		weak:      rel != Strong,
		rowWords:  (n + 63) / 64,
		steps:     make([][]compose.Step, n),
		stEnabled: make([]uint64, n*words),
		stExt:     stateExt,
		block:     make([]int32, n),
		numLabels: numLabels,
		words:     words,
		rootTauID: specNoMove,
		ids:       map[string]int32{},
		deltas:    map[int64]int32{},
	}

	// The homogeneity partition: two spec states share a block iff they
	// are equivalent for the game's relation. Congruence uses the ≈
	// partition — the root condition is handled at the root pair, and
	// away from the root ≈ᶜ coincides with ≈.
	if rel == Strong {
		part := core.StrongPartition(spec)
		for q := 0; q < n; q++ {
			d.block[q] = part.Block(int32(q))
		}
	} else {
		part, err := core.WeakPartition(spec)
		if err != nil {
			return nil, &UndecidedError{Reason: fmt.Sprintf("cannot partition the spec for the subset game: %v", err)}
		}
		for q := 0; q < n; q++ {
			d.block[q] = part.Block(int32(q))
		}
	}

	if d.weak {
		d.clo = fsp.TauClosure(spec)
	}
	for q := 0; q < n; q++ {
		arcs := spec.Arcs(fsp.State(q))
		ps := make([]compose.Step, len(arcs))
		enabled := d.stEnabled[q*words : (q+1)*words]
		for i, a := range arcs {
			l := int32(0)
			if a.Act != fsp.Tau {
				l = specLabel[a.Act]
			}
			ps[i] = compose.Step{Label: l, To: int32(a.To)}
			// For the weak games tau is not an obligation: it is folded
			// into the subsets' tau-closure and the product may always
			// stand still against it.
			if l != 0 || rel == Strong {
				setBit(enabled, l)
			}
		}
		sort.Slice(ps, func(x, y int) bool {
			if ps[x].Label != ps[y].Label {
				return ps[x].Label < ps[y].Label
			}
			return ps[x].To < ps[y].To
		})
		d.steps[q] = ps
	}

	// The root subset: tau-closure of the start state (weak) or the
	// start state alone (strong).
	root := make([]uint64, d.rowWords)
	if d.weak {
		d.clo.OrClosureInto(root, spec.Start())
	} else {
		setBit(root, int32(spec.Start()))
	}
	d.mu.Lock()
	d.rootSubset = d.internLocked(root)
	d.mu.Unlock()
	if d.rootSubset == specUndecided {
		return nil, &UndecidedError{Reason: *d.heteroReason.Load() + " (the spec's own start closure)"}
	}

	if rel == Congruence {
		// The ≈ᶜ root answers: the spec's =tau=>+ derivative subset (at
		// least one strong tau, closures on both sides), and whether the
		// start state itself moves on tau (including self-loops, which
		// the closure rows drop).
		for _, a := range spec.Arcs(spec.Start()) {
			if a.Act == fsp.Tau {
				d.specRootTau = true
				break
			}
		}
		tau := make([]uint64, d.rowWords)
		d.mu.Lock()
		for _, m := range d.subsets[d.rootSubset].members {
			for _, st := range compose.Span(d.steps[m], 0) {
				d.clo.OrClosureInto(tau, fsp.State(st.To))
			}
		}
		if !zeroWords(tau) {
			d.rootTauID = d.internLocked(tau)
		}
		d.mu.Unlock()
		if d.rootTauID == specUndecided {
			return nil, &UndecidedError{Reason: *d.heteroReason.Load() + " (the spec's root tau derivatives)"}
		}
	}
	return d, nil
}

// internLocked hash-conses the subset row, building its member list and
// per-subset tables on first sight and checking homogeneity: a subset
// whose members span more than one equivalence block is essential
// nondeterminism, recorded in heteroReason and answered specUndecided.
// d.mu must be held for writing; row is not retained on a hit.
func (d *detSpec) internLocked(row []uint64) int32 {
	key := string(rowBytes(row))
	if id, ok := d.ids[key]; ok {
		return id
	}
	members := appendRowMembers(nil, row)
	for _, m := range members[1:] {
		if d.block[m] != d.block[members[0]] {
			adv := "weakly"
			if d.rel == Strong {
				adv = "strongly"
			}
			reason := fmt.Sprintf("spec subset %s mixes %s inequivalent states %d and %d — the spec's nondeterminism is essential here and the subset game cannot decide it",
				subsetString(members), adv, members[0], m)
			d.heteroReason.CompareAndSwap(nil, &reason)
			return specUndecided
		}
	}
	rec := subsetRec{
		row:     row,
		members: members,
		enabled: make([]uint64, d.words),
		ext:     make([]uint64, len(d.stExt[members[0]])),
	}
	for _, m := range members {
		orWords(rec.enabled, d.stEnabled[int(m)*d.words:(int(m)+1)*d.words])
		orWords(rec.ext, d.stExt[m])
	}
	id := int32(len(d.subsets))
	d.ids[key] = id
	d.subsets = append(d.subsets, rec)
	return id
}

func (d *detSpec) start() int32 { return d.rootSubset }

// delta is the determinized transition function: the (closed) union of
// the members' l-successors, computed on first demand and memoized.
func (d *detSpec) delta(q, l int32) int32 {
	key := int64(q)<<32 | int64(uint32(l))
	d.mu.RLock()
	id, ok := d.deltas[key]
	rec := d.subsets[q]
	d.mu.RUnlock()
	if ok {
		return id
	}
	row := make([]uint64, d.rowWords)
	for _, m := range rec.members {
		for _, st := range compose.Span(d.steps[m], l) {
			if d.weak {
				d.clo.OrClosureInto(row, fsp.State(st.To))
			} else {
				setBit(row, st.To)
			}
		}
	}
	d.mu.Lock()
	if memo, ok := d.deltas[key]; ok {
		d.mu.Unlock()
		return memo
	}
	id = specNoMove
	if !zeroWords(row) {
		id = d.internLocked(row)
	}
	d.deltas[key] = id
	d.mu.Unlock()
	return id
}

func (d *detSpec) pairRows(q int32) (ext, enabled []uint64) {
	// One lock round trip per explored pair: subsetRec contents are
	// immutable once interned, the lock only orders the slice growth.
	d.mu.RLock()
	rec := &d.subsets[q]
	ext, enabled = rec.ext, rec.enabled
	d.mu.RUnlock()
	return ext, enabled
}

func (d *detSpec) rootTauDelta() int32 { return d.rootTauID }

func (d *detSpec) rootHasTau() bool { return d.specRootTau }

func (d *detSpec) describe(q int32) string {
	d.mu.RLock()
	members := d.subsets[q].members
	d.mu.RUnlock()
	return "subset " + subsetString(members)
}

func (d *detSpec) numSubsets() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.subsets)
}

// rowBytes packs a subset row for map keying.
func rowBytes(row []uint64) []byte {
	out := make([]byte, 8*len(row))
	for i, w := range row {
		for b := 0; b < 8; b++ {
			out[8*i+b] = byte(w >> (8 * b))
		}
	}
	return out
}

// appendRowMembers appends the set bits of row (spec states, increasing)
// to dst.
func appendRowMembers(dst []int32, row []uint64) []int32 {
	for i, w := range row {
		base := int32(i << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// subsetString renders a member list as {1,4,9}.
func subsetString(members []int32) string {
	parts := make([]string, len(members))
	for i, m := range members {
		parts[i] = fmt.Sprint(m)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
