// Package lts is the shared refinement kernel of the repository: an
// interned, CSR-backed (compressed sparse row) view of a labelled
// transition system that every equivalence layer refines against.
//
// Kanellakis & Smolka reduce all three of the paper's equivalence problems
// to one primitive, the relational coarsest partition problem (Section 3),
// and Theorem 3.1 solves it with the "process the smaller half" discipline
// that Paige & Tarjan (1987) later made canonical. That algorithm never
// needs the raw edge list — it needs exactly three derived structures:
//
//   - the reverse index (in-edges grouped by target), which is precisely
//     the preimage structure count(x, l, B) is maintained over;
//   - the count-record skeleton, one record per (source, label) pair with
//     positive out-degree, holding the number of l-edges from x into the
//     universe block;
//   - the forward index grouped by action label, for signature computation
//     and quotient construction.
//
// An Index materializes all three once. Callers (core, kequiv, automata,
// failures, hml, the engine) build the Index a single time per process —
// or per saturated P-hat — cache it, and hand it to the solvers in
// internal/partition, which refine directly on the flat arrays with zero
// per-call edge-slice allocation and no internal re-sorting.
//
// Construction dedupes duplicate (from, label, to) arcs (Delta is a
// relation, i.e. a set; duplicates would inflate splitter work), remaps
// action labels to a dense range so sparsely-used alphabets cost nothing,
// and precomputes each state's outgoing-action-set signature, which seeds
// the initial partition of the Paige-Tarjan run (states with different
// outgoing label sets can never share a block of any stable partition).
//
// Indexes are immutable after construction and safe for concurrent use;
// the solvers copy the small mutable parts (count records) per run.
package lts

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"ccs/internal/fsp"
)

// Index is the immutable CSR view of one labelled transition system over
// states 0..N-1 and dense labels 0..NumLabels-1. See the package comment
// for the role of each component. All accessor slices are shared and must
// not be modified by callers.
type Index struct {
	n         int
	numLabels int
	m         int // edges after dedup

	// labels names the dense labels, in order, for cross-index alignment
	// (DisjointUnion matches labels by name). nil means the labels are
	// anonymous (e.g. DFA symbols), in which case indexes are only
	// unionable with other anonymous indexes of compatible width.
	labels []string

	// Forward CSR: edge i has source s with fwdStart[s] <= i < fwdStart[s+1],
	// label fwdLabel[i] and target fwdTo[i]; each state's span is sorted by
	// (label, target), so per-(state, label) destination runs are contiguous.
	fwdStart []int32 // len n+1
	fwdLabel []int32 // len m
	fwdTo    []int32 // len m

	// Reverse CSR: in-edge j has target t with revStart[t] <= j < revStart[t+1],
	// source revFrom[j] and label revLabel[j]. This is the Paige-Tarjan
	// preimage index: scanning the in-edges of a block B visits exactly the
	// (x, l) pairs whose count records the split must update.
	revStart []int32 // len n+1
	revFrom  []int32 // len m
	revLabel []int32 // len m

	// Count-record skeleton: one record per (source, label) pair with
	// out-degree > 0. recCount[r] is the initial count of the record's edges
	// (its l-edges into the single-block universe); revRec[j] is the record
	// of reverse edge j. Solvers copy both before mutating.
	numRecs  int
	recCount []int32
	revRec   []int32 // len m

	// Signature pre-partition: sigOf[s] is a dense id of state s's set of
	// outgoing labels; states with equal sets share an id. numSigs is the
	// number of distinct sets.
	sigOf   []int32 // len n
	numSigs int
}

// N returns the number of states.
func (x *Index) N() int { return x.n }

// NumLabels returns the number of dense labels.
func (x *Index) NumLabels() int { return x.numLabels }

// NumEdges returns the number of distinct (from, label, to) edges.
func (x *Index) NumEdges() int { return x.m }

// Fwd returns the forward CSR arrays (start has length N+1). Shared; do
// not modify.
func (x *Index) Fwd() (start, label, to []int32) { return x.fwdStart, x.fwdLabel, x.fwdTo }

// Rev returns the reverse CSR arrays (start has length N+1). Shared; do
// not modify.
func (x *Index) Rev() (start, from, label []int32) { return x.revStart, x.revFrom, x.revLabel }

// Records returns the count-record skeleton: per-record initial counts and
// the record id of every reverse edge. Shared; solvers must copy before
// mutating.
func (x *Index) Records() (count, revRec []int32, numRecs int) {
	return x.recCount, x.revRec, x.numRecs
}

// Signatures returns the per-state outgoing-label-set signature ids and
// the number of distinct signatures. Shared; do not modify.
func (x *Index) Signatures() (sigOf []int32, numSigs int) { return x.sigOf, x.numSigs }

// Dests returns the targets of state s under label l as a shared subslice
// of the forward index (sorted, deduplicated). The lookup is a binary
// search within s's degree slice.
func (x *Index) Dests(s, l int32) []int32 {
	lo, hi := x.fwdStart[s], x.fwdStart[s+1]
	i := lo + int32(sort.Search(int(hi-lo), func(k int) bool { return x.fwdLabel[lo+int32(k)] >= l }))
	j := i
	for j < hi && x.fwdLabel[j] == l {
		j++
	}
	return x.fwdTo[i:j]
}

// build assembles an Index from forward CSR arrays that are already
// grouped by state, sorted by (label, target) within each state, and
// deduplicated. It derives the reverse CSR (a stable counting sort by
// target, so in-edges stay in (source, label) order), the count-record
// skeleton and the signature table in O(n + m).
func build(n, numLabels int, labels []string, fwdStart, fwdLabel, fwdTo []int32) *Index {
	m := len(fwdTo)

	// Count records: contiguous (source, label) runs of the forward index.
	recCount := make([]int32, 0, m)
	fwdRec := make([]int32, m)
	for s := 0; s < n; s++ {
		last := int32(-1)
		for i := fwdStart[s]; i < fwdStart[s+1]; i++ {
			if len(recCount) == 0 || fwdLabel[i] != last {
				recCount = append(recCount, 0)
				last = fwdLabel[i]
			}
			r := int32(len(recCount) - 1)
			recCount[r]++
			fwdRec[i] = r
		}
	}

	// Reverse CSR by counting sort on the target.
	revStart := make([]int32, n+1)
	for _, t := range fwdTo {
		revStart[t+1]++
	}
	for i := 1; i <= n; i++ {
		revStart[i] += revStart[i-1]
	}
	revFrom := make([]int32, m)
	revLabel := make([]int32, m)
	revRec := make([]int32, m)
	fill := make([]int32, n)
	copy(fill, revStart[:n])
	for s := int32(0); s < int32(n); s++ {
		for i := fwdStart[s]; i < fwdStart[s+1]; i++ {
			t := fwdTo[i]
			j := fill[t]
			fill[t]++
			revFrom[j] = s
			revLabel[j] = fwdLabel[i]
			revRec[j] = fwdRec[i]
		}
	}

	sigOf, numSigs := computeSignatures(n, fwdStart, fwdLabel)

	return &Index{
		n:         n,
		numLabels: numLabels,
		m:         m,
		labels:    labels,
		fwdStart:  fwdStart,
		fwdLabel:  fwdLabel,
		fwdTo:     fwdTo,
		revStart:  revStart,
		revFrom:   revFrom,
		revLabel:  revLabel,
		numRecs:   len(recCount),
		recCount:  recCount,
		revRec:    revRec,
		sigOf:     sigOf,
		numSigs:   numSigs,
	}
}

// computeSignatures assigns each state a dense id of its outgoing label
// set. The forward span of a state is label-sorted, so the set is the run
// of distinct labels, encoded as a byte key.
func computeSignatures(n int, fwdStart, fwdLabel []int32) ([]int32, int) {
	sigOf := make([]int32, n)
	ids := make(map[string]int32, 16)
	var buf []byte
	for s := 0; s < n; s++ {
		buf = buf[:0]
		last := int32(-1)
		for i := fwdStart[s]; i < fwdStart[s+1]; i++ {
			if l := fwdLabel[i]; l != last {
				buf = append(buf, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
				last = l
			}
		}
		id, ok := ids[string(buf)]
		if !ok {
			id = int32(len(ids))
			ids[string(buf)] = id
		}
		sigOf[s] = id
	}
	return sigOf, len(ids)
}

// FromFSP builds the refinement index of an FSP. Actions are remapped to a
// dense label range covering only the actions that actually occur in the
// transition relation (tau, if present, is an ordinary label — exactly the
// strong-equivalence reading; observational callers index the saturated
// P-hat instead). The FSP's per-state arcs are already (action, target)
// sorted, so construction is a linear copy; adjacent duplicates are
// dropped defensively.
func FromFSP(f *fsp.FSP) *Index {
	n := f.NumStates()
	dense, labels := denseLabels(f)

	fwdStart := make([]int32, n+1)
	fwdLabel := make([]int32, 0, f.NumTransitions())
	fwdTo := make([]int32, 0, f.NumTransitions())
	for s := 0; s < n; s++ {
		fwdStart[s] = int32(len(fwdTo))
		arcs := f.Arcs(fsp.State(s))
		for i, a := range arcs {
			if i > 0 && a == arcs[i-1] {
				continue
			}
			// The dense remap is monotone in the action id, so the span
			// stays (label, target) sorted.
			fwdLabel = append(fwdLabel, dense[a.Act])
			fwdTo = append(fwdTo, int32(a.To))
		}
	}
	fwdStart[n] = int32(len(fwdTo))
	return build(n, len(labels), labels, fwdStart, fwdLabel, fwdTo)
}

// denseLabels remaps the actions that occur in f's arcs to the dense
// labels 0, 1, ... in action order (dense is -1 elsewhere) and names them.
// The remap is monotone, so (action, target)-sorted rows stay
// (label, target)-sorted.
func denseLabels(f *fsp.FSP) (dense []int32, labels []string) {
	alphaLen := f.Alphabet().Len()
	used := make([]bool, alphaLen)
	for s := 0; s < f.NumStates(); s++ {
		for _, a := range f.Arcs(fsp.State(s)) {
			used[a.Act] = true
		}
	}
	dense = make([]int32, alphaLen)
	labels = make([]string, 0, alphaLen)
	for act := fsp.Action(0); int(act) < alphaLen; act++ {
		dense[act] = -1
		if used[act] {
			dense[act] = int32(len(labels))
			labels = append(labels, f.Alphabet().Name(act))
		}
	}
	return dense, labels
}

// FromWeak builds the weak observable-arc index of f from a precomputed
// tau-closure: label i is the i-th observable action (fsp.Action i+1),
// and the destinations of (s, i) are the weak sigma-derivatives
// {q : s ==sigma=> q} of Section 2.1. This is the saturated view the
// subset-construction deciders (kequiv, failures) step through; keeping
// the construction here keeps the label convention and the
// closure-closedness of the destination sets in one place. Labels are
// anonymous (these indexes are never unioned).
func FromWeak(f *fsp.FSP, clo fsp.Closure) *Index {
	n := f.NumStates()
	fwdStart := make([]int32, n+1)
	var fwdLabel, fwdTo []int32
	// The rows come in (sigma, target) order without duplicates, so the
	// forward index is written directly, with no sort.
	weak := clo.WeakRows(f)
	for s := 0; s < n; s++ {
		weak.Row(fsp.State(s), func(sigma fsp.Action, to []fsp.State) {
			for _, t := range to {
				fwdLabel = append(fwdLabel, int32(sigma)-1)
				fwdTo = append(fwdTo, int32(t))
			}
		})
		fwdStart[s+1] = int32(len(fwdTo))
	}
	return build(n, f.Alphabet().NumObservable(), nil, fwdStart, fwdLabel, fwdTo)
}

// Builder accumulates labelled edges and produces an Index. Unlike
// FromFSP it accepts edges in any order and with duplicates; Build sorts
// and dedupes. The zero value is not usable; call NewBuilder or
// NewNamedBuilder.
type Builder struct {
	n         int
	numLabels int
	labels    []string
	from      []int32
	label     []int32
	to        []int32
}

// NewBuilder returns a builder over n states and numLabels anonymous
// labels (no name table; union only with other anonymous indexes).
func NewBuilder(n, numLabels int) *Builder {
	return &Builder{n: n, numLabels: numLabels}
}

// NewNamedBuilder returns a builder whose dense labels carry the given
// names (label i is names[i]).
func NewNamedBuilder(n int, names []string) *Builder {
	labels := make([]string, len(names))
	copy(labels, names)
	return &Builder{n: n, numLabels: len(names), labels: labels}
}

// EnsureStates raises the builder's state count to at least n. On-the-fly
// product constructions (the compose package's network explorer) intern
// states as they are discovered and cannot know the final count up front;
// they grow the space with EnsureStates before adding edges that mention a
// fresh state, keeping Add's range check meaningful throughout.
func (b *Builder) EnsureStates(n int) {
	if n > b.n {
		b.n = n
	}
}

// Add records the edge (from, label, to). Out-of-range states or labels
// panic: they indicate a construction bug, exactly like an out-of-range
// slice index in the caller would.
func (b *Builder) Add(from, label, to int32) {
	if from < 0 || int(from) >= b.n || to < 0 || int(to) >= b.n {
		panic(fmt.Sprintf("lts: edge (%d,%d,%d) state out of range [0,%d)", from, label, to, b.n))
	}
	if label < 0 || int(label) >= b.numLabels {
		panic(fmt.Sprintf("lts: edge (%d,%d,%d) label out of range [0,%d)", from, label, to, b.numLabels))
	}
	b.from = append(b.from, from)
	b.label = append(b.label, label)
	b.to = append(b.to, to)
}

// Build sorts the accumulated edges by (from, label, to), drops
// duplicates, and assembles the Index. Build consumes the edge buffers
// and resets them, so a builder may afterwards accumulate a fresh edge
// set over the same state space (the produced Index is unaffected).
func (b *Builder) Build() *Index {
	m := len(b.from)
	// LSD radix sort with three stable counting passes: by target, then
	// label, then source — O(m + n + labels), no comparison sort.
	b.countingPass(b.to, b.n)
	b.countingPass(b.label, b.numLabels)
	b.countingPass(b.from, b.n)

	// Dedup in place (the triple columns are sorted), compacting the source
	// column alongside, then derive the start offsets from it.
	fwdStart := make([]int32, b.n+1)
	fwdLabel := make([]int32, 0, m)
	fwdTo := make([]int32, 0, m)
	for i := 0; i < m; i++ {
		if i > 0 && b.from[i] == b.from[i-1] && b.label[i] == b.label[i-1] && b.to[i] == b.to[i-1] {
			continue
		}
		b.from[len(fwdTo)] = b.from[i]
		fwdLabel = append(fwdLabel, b.label[i])
		fwdTo = append(fwdTo, b.to[i])
	}
	for i := range fwdTo {
		fwdStart[b.from[i]+1]++
	}
	for s := 0; s < b.n; s++ {
		fwdStart[s+1] += fwdStart[s]
	}
	b.from, b.label, b.to = nil, nil, nil
	return build(b.n, b.numLabels, b.labels, fwdStart, fwdLabel, fwdTo)
}

// countingPass stably reorders the three edge columns by the given key
// column (values in [0, width)).
func (b *Builder) countingPass(key []int32, width int) {
	m := len(b.from)
	counts := make([]int32, width+1)
	for _, k := range key {
		counts[k+1]++
	}
	for i := 1; i <= width; i++ {
		counts[i] += counts[i-1]
	}
	nf := make([]int32, m)
	nl := make([]int32, m)
	nt := make([]int32, m)
	for i := 0; i < m; i++ {
		j := counts[key[i]]
		counts[key[i]]++
		nf[j] = b.from[i]
		nl[j] = b.label[i]
		nt[j] = b.to[i]
	}
	b.from, b.label, b.to = nf, nl, nt
}

// DisjointUnion combines two indexes into one over the disjoint union of
// their state spaces (a's states first; the returned offset maps b-state s
// to offset+s). Labels are aligned by name — the lts-level counterpart of
// fsp.DisjointUnion's name-interning — so two cached processes can be
// compared without re-flattening either one. Two anonymous indexes union
// with identity label mapping over the wider label range; mixing a named
// and an anonymous index is an error.
func DisjointUnion(a, b *Index) (*Index, int32, error) {
	var labels []string
	remap := make([]int32, b.numLabels)
	var numLabels int
	switch {
	case a.labels != nil && b.labels != nil:
		labels = make([]string, len(a.labels), len(a.labels)+len(b.labels))
		copy(labels, a.labels)
		pos := make(map[string]int32, len(labels))
		for i, nm := range labels {
			pos[nm] = int32(i)
		}
		for i, nm := range b.labels {
			id, ok := pos[nm]
			if !ok {
				id = int32(len(labels))
				labels = append(labels, nm)
				pos[nm] = id
			}
			remap[i] = id
		}
		numLabels = len(labels)
	case a.labels == nil && b.labels == nil:
		for i := range remap {
			remap[i] = int32(i)
		}
		numLabels = a.numLabels
		if b.numLabels > numLabels {
			numLabels = b.numLabels
		}
	default:
		return nil, 0, fmt.Errorf("lts: cannot union a named index with an anonymous one")
	}

	n := a.n + b.n
	m := a.m + b.m
	off := int32(a.n)
	fwdStart := make([]int32, n+1)
	copy(fwdStart, a.fwdStart)
	for i := 1; i <= b.n; i++ {
		fwdStart[a.n+i] = int32(a.m) + b.fwdStart[i]
	}
	fwdLabel := make([]int32, m)
	fwdTo := make([]int32, m)
	copy(fwdLabel, a.fwdLabel)
	copy(fwdTo, a.fwdTo)
	// The remap may permute the labels — label tables interned in
	// different orders, as for nearly every pair of separately parsed
	// texts — but each label run of one of b's spans keeps its sorted
	// targets, so only whole runs move: each span's runs are ordered by
	// their new label and copied.
	type run struct{ label, lo, hi int32 }
	var runs []run
	out := int32(a.m)
	for s := 0; s < b.n; s++ {
		runs = runs[:0]
		for i, hi := b.fwdStart[s], b.fwdStart[s+1]; i < hi; {
			j := i + 1
			for j < hi && b.fwdLabel[j] == b.fwdLabel[i] {
				j++
			}
			runs = append(runs, run{remap[b.fwdLabel[i]], i, j})
			i = j
		}
		slices.SortFunc(runs, func(x, y run) int { return cmp.Compare(x.label, y.label) })
		for _, r := range runs {
			for i := r.lo; i < r.hi; i++ {
				fwdLabel[out] = r.label
				fwdTo[out] = b.fwdTo[i] + off
				out++
			}
		}
	}
	return build(n, numLabels, labels, fwdStart, fwdLabel, fwdTo), off, nil
}
