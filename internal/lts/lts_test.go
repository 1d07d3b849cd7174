package lts_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/lts"
)

func TestBuilderDedupesAndSorts(t *testing.T) {
	b := lts.NewBuilder(3, 2)
	// Shuffled insertion order with duplicates.
	b.Add(2, 1, 0)
	b.Add(0, 1, 2)
	b.Add(0, 0, 1)
	b.Add(0, 1, 2) // dup
	b.Add(0, 0, 1) // dup
	b.Add(2, 1, 0) // dup
	idx := b.Build()
	if idx.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3 (duplicates must collapse)", idx.NumEdges())
	}
	if got := idx.Dests(0, 0); len(got) != 1 || got[0] != 1 {
		t.Errorf("Dests(0,0) = %v, want [1]", got)
	}
	if got := idx.Dests(0, 1); len(got) != 1 || got[0] != 2 {
		t.Errorf("Dests(0,1) = %v, want [2]", got)
	}
	if got := idx.Dests(1, 0); len(got) != 0 {
		t.Errorf("Dests(1,0) = %v, want empty", got)
	}
	count, revRec, numRecs := idx.Records()
	var sum int32
	for _, c := range count {
		sum += c
	}
	if int(sum) != idx.NumEdges() {
		t.Errorf("record counts sum to %d, want %d", sum, idx.NumEdges())
	}
	if len(revRec) != idx.NumEdges() {
		t.Errorf("revRec length %d, want %d", len(revRec), idx.NumEdges())
	}
	if numRecs != 3 { // (0,0), (0,1), (2,1)
		t.Errorf("numRecs = %d, want 3", numRecs)
	}
}

func TestReverseIndexIsPreimage(t *testing.T) {
	b := lts.NewBuilder(4, 2)
	b.Add(0, 0, 3)
	b.Add(1, 0, 3)
	b.Add(2, 1, 3)
	b.Add(3, 1, 0)
	idx := b.Build()
	start, from, label := idx.Rev()
	// In-edges of 3: (0,0), (1,0), (2,1) in (source, label) order.
	lo, hi := start[3], start[4]
	if hi-lo != 3 {
		t.Fatalf("state 3 has %d in-edges, want 3", hi-lo)
	}
	wantFrom := []int32{0, 1, 2}
	wantLabel := []int32{0, 0, 1}
	for i := lo; i < hi; i++ {
		if from[i] != wantFrom[i-lo] || label[i] != wantLabel[i-lo] {
			t.Errorf("in-edge %d = (%d,%d), want (%d,%d)", i-lo, from[i], label[i], wantFrom[i-lo], wantLabel[i-lo])
		}
	}
}

func TestSignaturesGroupByLabelSet(t *testing.T) {
	b := lts.NewBuilder(5, 3)
	b.Add(0, 0, 1)
	b.Add(0, 2, 1)
	b.Add(1, 0, 2)
	b.Add(1, 2, 0)
	b.Add(2, 1, 0)
	// 3 and 4 have no out-edges.
	idx := b.Build()
	sig, num := idx.Signatures()
	if sig[0] != sig[1] {
		t.Errorf("states 0 and 1 share label set {0,2} but sig %d != %d", sig[0], sig[1])
	}
	if sig[3] != sig[4] {
		t.Errorf("deadlock states 3 and 4 must share a signature, got %d and %d", sig[3], sig[4])
	}
	if sig[2] == sig[0] || sig[2] == sig[3] {
		t.Errorf("state 2 (label set {1}) must differ from %d and %d", sig[0], sig[3])
	}
	if num != 3 {
		t.Errorf("numSigs = %d, want 3", num)
	}
}

func TestFromFSPDenseRemap(t *testing.T) {
	b := fsp.NewBuilder("dense")
	b.AddStates(2)
	// Intern actions a..e but only use b and d.
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		b.Action(n)
	}
	b.ArcName(0, "b", 1)
	b.ArcName(0, "d", 0)
	f := b.MustBuild()
	idx := lts.FromFSP(f)
	if idx.NumLabels() != 2 {
		t.Fatalf("NumLabels = %d, want 2 (dense remap over used actions)", idx.NumLabels())
	}
	names := idx.LabelNames()
	if len(names) != 2 || names[0] != "b" || names[1] != "d" {
		t.Fatalf("LabelNames = %v, want [b d]", names)
	}
	if got := idx.Dests(0, 0); len(got) != 1 || got[0] != 1 {
		t.Errorf("Dests(0, b) = %v, want [1]", got)
	}
	if got := idx.Dests(0, 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("Dests(0, d) = %v, want [0]", got)
	}
}

func TestDisjointUnionAlignsLabelsByName(t *testing.T) {
	// p uses actions (a, b); q uses (b, c) — and q's dense ids differ.
	pb := fsp.NewBuilder("p")
	pb.AddStates(2)
	pb.ArcName(0, "a", 1)
	pb.ArcName(1, "b", 0)
	p := pb.MustBuild()

	qb := fsp.NewBuilder("q")
	qb.AddStates(2)
	qb.ArcName(0, "b", 1)
	qb.ArcName(1, "c", 1)
	q := qb.MustBuild()

	pi, qi := lts.FromFSP(p), lts.FromFSP(q)
	u, off, err := lts.DisjointUnion(pi, qi)
	if err != nil {
		t.Fatal(err)
	}
	if off != 2 || u.N() != 4 {
		t.Fatalf("offset = %d, N = %d; want 2, 4", off, u.N())
	}
	names := u.LabelNames()
	if len(names) != 3 {
		t.Fatalf("union labels = %v, want 3 labels a, b, c", names)
	}
	labelOf := map[string]int32{}
	for i, nm := range names {
		labelOf[nm] = int32(i)
	}
	// q-state 0's b-edge must land on union label "b", target off+1.
	if got := u.Dests(off+0, labelOf["b"]); len(got) != 1 || got[0] != off+1 {
		t.Errorf("union Dests(q0, b) = %v, want [%d]", got, off+1)
	}
	// p-state 1's b-edge shares that label.
	if got := u.Dests(1, labelOf["b"]); len(got) != 1 || got[0] != 0 {
		t.Errorf("union Dests(p1, b) = %v, want [0]", got)
	}
	if got := u.Dests(off+1, labelOf["c"]); len(got) != 1 || got[0] != off+1 {
		t.Errorf("union Dests(q1, c) = %v, want [%d]", got, off+1)
	}
}

func TestDisjointUnionMixedNamednessFails(t *testing.T) {
	nb := fsp.NewBuilder("n")
	nb.AddStates(1)
	named := lts.FromFSP(nb.MustBuild())
	anon := lts.NewBuilder(1, 1).Build()
	if _, _, err := lts.DisjointUnion(named, anon); err == nil {
		t.Error("union of named and anonymous index must fail")
	}
}

// spanSorter sorts one state's forward span by (label, target): the
// per-state sort DisjointUnion used to repair b's spans under a
// non-monotone label remap, kept here as the oracle for the run reorder.
type spanSorter struct {
	label, to []int32
}

func (s spanSorter) Len() int { return len(s.label) }
func (s spanSorter) Less(i, j int) bool {
	if s.label[i] != s.label[j] {
		return s.label[i] < s.label[j]
	}
	return s.to[i] < s.to[j]
}
func (s spanSorter) Swap(i, j int) {
	s.label[i], s.label[j] = s.label[j], s.label[i]
	s.to[i], s.to[j] = s.to[j], s.to[i]
}

// sortedUnionOracle forms the forward arrays of the disjoint union of a
// and b the old way: concatenate with b's labels remapped by name, then
// sort every span of b.
func sortedUnionOracle(a, b *lts.Index) (labels []string, start, label, to []int32) {
	labels = slices.Clone(a.LabelNames())
	remap := make([]int32, b.NumLabels())
	for i, nm := range b.LabelNames() {
		id := slices.Index(labels, nm)
		if id < 0 {
			id = len(labels)
			labels = append(labels, nm)
		}
		remap[i] = int32(id)
	}
	as, al, at := a.Fwd()
	bs, bl, bt := b.Fwd()
	off := int32(a.N())
	start = slices.Clone(as)
	for i := 1; i <= b.N(); i++ {
		start = append(start, int32(len(at))+bs[i])
	}
	label, to = slices.Clone(al), slices.Clone(at)
	for i := range bt {
		label = append(label, remap[bl[i]])
		to = append(to, bt[i]+off)
	}
	for s := a.N(); s < a.N()+b.N(); s++ {
		lo, hi := start[s], start[s+1]
		sort.Sort(spanSorter{label: label[lo:hi], to: to[lo:hi]})
	}
	return labels, start, label, to
}

// reinterned returns a copy of f whose observable actions are interned in
// a random order, as two separately parsed texts intern them.
func reinterned(rng *rand.Rand, f *fsp.FSP) *fsp.FSP {
	var names []string
	for _, a := range f.Alphabet().Observable() {
		names = append(names, f.Alphabet().Name(a))
	}
	sort.Strings(names)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	b := fsp.NewBuilderWith(f.Name(), fsp.NewAlphabet(names...), f.Vars().Clone())
	b.AddStates(f.NumStates())
	b.SetStart(f.Start())
	for s := 0; s < f.NumStates(); s++ {
		for _, a := range f.Arcs(fsp.State(s)) {
			b.ArcName(fsp.State(s), f.Alphabet().Name(a.Act), a.To)
		}
		for _, id := range f.Ext(fsp.State(s)).IDs() {
			b.Extend(fsp.State(s), f.Vars().Name(id))
		}
	}
	return b.MustBuild()
}

// TestDisjointUnionRunReorderMatchesSortOracle: when the two label tables
// were interned in different orders, DisjointUnion reorders whole label
// runs of b's spans; its CSR arrays must equal those of the sort-based
// repair on index pairs of random and tau-rich processes, plain and
// saturated.
func TestDisjointUnionRunReorderMatchesSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	nonMonotone := 0
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(20)
		p := gen.Random(rng, n, rng.Intn(4*n), 2+rng.Intn(5), 0.3)
		q := reinterned(rng, gen.Random(rng, n, rng.Intn(4*n), 2+rng.Intn(5), 0.3))
		if trial%2 == 1 {
			var err error
			if p, _, err = fsp.Saturate(p); err != nil {
				t.Fatal(err)
			}
			if q, _, err = fsp.Saturate(q); err != nil {
				t.Fatal(err)
			}
		}
		a, b := lts.FromFSP(p), lts.FromFSP(q)
		u, off, err := lts.DisjointUnion(a, b)
		if err != nil {
			t.Fatal(err)
		}
		labels, start, label, to := sortedUnionOracle(a, b)
		us, ul, ut := u.Fwd()
		if off != int32(a.N()) || !slices.Equal(u.LabelNames(), labels) ||
			!slices.Equal(us, start) || !slices.Equal(ul, label) || !slices.Equal(ut, to) {
			t.Fatalf("trial %d: union CSR differs from the sort-based oracle", trial)
		}
		for i := 1; i < b.NumLabels(); i++ {
			if slices.Index(labels, b.LabelNames()[i]) < slices.Index(labels, b.LabelNames()[i-1]) {
				nonMonotone++
				break
			}
		}
	}
	if nonMonotone < 100 {
		t.Fatalf("only %d of 300 pairs had label tables in different orders", nonMonotone)
	}
}
