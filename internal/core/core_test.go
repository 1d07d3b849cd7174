package core

import (
	"testing"

	"ccs/internal/fsp"
	"ccs/internal/partition"
)

// chain builds a unary restricted chain of the given length: a^len.
func chain(name string, length int) *fsp.FSP {
	b := fsp.NewBuilder(name)
	b.AddStates(length + 1)
	for i := 0; i < length; i++ {
		b.ArcName(fsp.State(i), "a", fsp.State(i+1))
	}
	for s := 0; s <= length; s++ {
		b.Accept(fsp.State(s))
	}
	return b.MustBuild()
}

func TestStrongEquivalentIdentical(t *testing.T) {
	f := chain("f", 3)
	g := chain("g", 3)
	eq, err := StrongEquivalent(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("paige-tarjan: identical chains not strongly equivalent")
	}
	// The Lemma 3.2 solver on the same union instance agrees.
	u, initial, off, err := pairInstance(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := partition.RefineStepsIndex(u, initial, -1); !p.Same(int32(f.Start()), off+int32(g.Start())) {
		t.Errorf("naive: identical chains not strongly equivalent")
	}
}

func TestStrongEquivalentDifferentLengths(t *testing.T) {
	f := chain("f", 3)
	g := chain("g", 4)
	eq, err := StrongEquivalent(f, g)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Errorf("chains of different length reported strongly equivalent")
	}
}

// unfolding builds a cycle vs its unfolding: a one-state a-loop is strongly
// equivalent to a two-state a-cycle.
func TestStrongEquivalentLoopUnfolding(t *testing.T) {
	b1 := fsp.NewBuilder("loop1")
	b1.AddStates(1)
	b1.ArcName(0, "a", 0)
	b1.Accept(0)
	one := b1.MustBuild()

	b2 := fsp.NewBuilder("loop2")
	b2.AddStates(2)
	b2.ArcName(0, "a", 1)
	b2.ArcName(1, "a", 0)
	b2.Accept(0)
	b2.Accept(1)
	two := b2.MustBuild()

	eq, err := StrongEquivalent(one, two)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("loop and its unfolding must be strongly equivalent")
	}
}

func TestStrongDistinguishesExtensions(t *testing.T) {
	b := fsp.NewBuilder("")
	b.AddStates(2)
	b.Accept(0)
	f := b.MustBuild()
	if StrongPartition(f).Same(0, 1) {
		t.Errorf("states with different extensions must differ (≈_0)")
	}
}

// nondetSplit is the classic strong-inequivalence pair:
// a·(b+c) vs a·b + a·c.
func TestStrongNondeterministicBranching(t *testing.T) {
	b1 := fsp.NewBuilder("a(b+c)")
	b1.AddStates(4)
	b1.ArcName(0, "a", 1)
	b1.ArcName(1, "b", 2)
	b1.ArcName(1, "c", 3)
	p := b1.MustBuild()

	b2 := fsp.NewBuilder("ab+ac")
	b2.AddStates(5)
	b2.ArcName(0, "a", 1)
	b2.ArcName(0, "a", 2)
	b2.ArcName(1, "b", 3)
	b2.ArcName(2, "c", 4)
	q := b2.MustBuild()

	eq, err := StrongEquivalent(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Errorf("a(b+c) ~ ab+ac reported, but they differ")
	}
	// They are language-equivalent, which is the whole point of the paper's
	// contrast with NFA equivalence; confirmed in the kequiv package.
}

// tauLawAB checks Milner's tau law: a·tau·b ≈ a·b.
func TestWeakTauLaw(t *testing.T) {
	b1 := fsp.NewBuilder("a.tau.b")
	b1.AddStates(4)
	b1.ArcName(0, "a", 1)
	b1.ArcName(1, fsp.TauName, 2)
	b1.ArcName(2, "b", 3)
	p := b1.MustBuild()

	b2 := fsp.NewBuilder("a.b")
	b2.AddStates(3)
	b2.ArcName(0, "a", 1)
	b2.ArcName(1, "b", 2)
	q := b2.MustBuild()

	eq, err := WeakEquivalent(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("a.tau.b ≈ a.b must hold")
	}
	// But strong equivalence must fail: tau is an ordinary move there.
	seq, err := StrongEquivalent(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if seq {
		t.Errorf("a.tau.b ~ a.b must NOT hold")
	}
}

func TestWeakTauPrefix(t *testing.T) {
	// tau.a ≈ a.
	b1 := fsp.NewBuilder("tau.a")
	b1.AddStates(3)
	b1.ArcName(0, fsp.TauName, 1)
	b1.ArcName(1, "a", 2)
	p := b1.MustBuild()

	b2 := fsp.NewBuilder("a")
	b2.AddStates(2)
	b2.ArcName(0, "a", 1)
	q := b2.MustBuild()

	eq, err := WeakEquivalent(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("tau.a ≈ a must hold")
	}
}

func TestWeakPreemptionNotEquivalent(t *testing.T) {
	// a + tau.b is NOT observationally equivalent to a + b: the tau move
	// can preempt a.
	b1 := fsp.NewBuilder("a+tau.b")
	b1.AddStates(4)
	b1.ArcName(0, "a", 1)
	b1.ArcName(0, fsp.TauName, 2)
	b1.ArcName(2, "b", 3)
	p := b1.MustBuild()

	b2 := fsp.NewBuilder("a+b")
	b2.AddStates(3)
	b2.ArcName(0, "a", 1)
	b2.ArcName(0, "b", 2)
	q := b2.MustBuild()

	eq, err := WeakEquivalent(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Errorf("a+tau.b ≈ a+b reported, but the tau preempts")
	}
}

func TestLimitedLadder(t *testing.T) {
	// Two chains of different length are ≃_k-equivalent for small k and
	// separated at k = length of the shorter + 1... Specifically for chains
	// a^2 vs a^3 (start states): separated first at k where the refinement
	// distinguishes depth; ≃_0 equates everything with equal extensions.
	f := chain("f", 2)
	g := chain("g", 3)
	u, off, err := fsp.DisjointUnion(f, g)
	if err != nil {
		t.Fatal(err)
	}
	p, q := f.Start(), off+g.Start()

	eq0, err := LimitedEquivalentStates(u, p, q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !eq0 {
		t.Errorf("≃_0 must hold (same extensions)")
	}
	// The fixpoint must separate them (they are not weakly equivalent).
	eqInf, err := LimitedEquivalentStates(u, p, q, -1)
	if err != nil {
		t.Fatal(err)
	}
	if eqInf {
		t.Errorf("≃ must separate chains of different length")
	}
	// Monotonicity: once separated, separated forever.
	separatedAt := -1
	for k := 0; k <= 6; k++ {
		eq, err := LimitedEquivalentStates(u, p, q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !eq && separatedAt == -1 {
			separatedAt = k
		}
		if eq && separatedAt != -1 {
			t.Errorf("≃_%d holds again after separation at %d", k, separatedAt)
		}
	}
	if separatedAt == -1 {
		t.Errorf("chains never separated by bounded ladder")
	}
}

func TestLimitedFixpointEqualsWeak(t *testing.T) {
	// Proposition 2.2.1(c): the ≃ ladder fixpoint is observational
	// equivalence.
	b := fsp.NewBuilder("mix")
	b.AddStates(6)
	b.ArcName(0, "a", 1)
	b.ArcName(0, fsp.TauName, 2)
	b.ArcName(2, "a", 3)
	b.ArcName(3, "b", 4)
	b.ArcName(1, "b", 5)
	b.Accept(4)
	b.Accept(5)
	f := b.MustBuild()

	weak, err := WeakPartition(f)
	if err != nil {
		t.Fatal(err)
	}
	lim, _, err := LimitedPartition(f, -1)
	if err != nil {
		t.Fatal(err)
	}
	if !weak.Equal(lim) {
		t.Errorf("≃ fixpoint %v differs from ≈ %v", lim.Blocks(), weak.Blocks())
	}
}

func TestQuotientStrong(t *testing.T) {
	// Two parallel identical branches collapse.
	b := fsp.NewBuilder("dup")
	b.AddStates(5)
	b.ArcName(0, "a", 1)
	b.ArcName(0, "a", 2)
	b.ArcName(1, "b", 3)
	b.ArcName(2, "b", 4)
	f := b.MustBuild()

	q, mapping, err := QuotientStrong(f)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumStates() != 3 {
		t.Errorf("quotient has %d states, want 3 (start, mid, end)", q.NumStates())
	}
	if mapping[1] != mapping[2] || mapping[3] != mapping[4] {
		t.Errorf("mapping did not merge duplicate branches: %v", mapping)
	}
	eq, err := StrongEquivalent(f, q)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("quotient not strongly equivalent to original")
	}
}

func TestQuotientWeak(t *testing.T) {
	b := fsp.NewBuilder("taudup")
	b.AddStates(5)
	b.ArcName(0, "a", 1)
	b.ArcName(1, fsp.TauName, 2)
	b.ArcName(2, "b", 3)
	b.ArcName(0, "a", 4) // 4 ≈ 1: both can only weakly do b... no, 4 is dead
	f := b.MustBuild()

	q, _, err := QuotientWeak(f)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := WeakEquivalent(f, q)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("weak quotient not observationally equivalent to original")
	}
	if q.NumStates() > f.NumStates() {
		t.Errorf("quotient grew: %d > %d", q.NumStates(), f.NumStates())
	}
}

// TestClasses: the blocks of a strong partition are its classes, and
// together they cover every state.
func TestClasses(t *testing.T) {
	f := chain("f", 1)
	p := StrongPartition(f)
	classes := p.Blocks()
	if len(classes) != p.NumBlocks() {
		t.Errorf("classes/blocks mismatch")
	}
	total := 0
	for _, c := range classes {
		total += len(c)
	}
	if total != f.NumStates() {
		t.Errorf("classes cover %d states, want %d", total, f.NumStates())
	}
}

func TestNaiveAndPTAgreeOnWeak(t *testing.T) {
	b := fsp.NewBuilder("")
	b.AddStates(7)
	b.ArcName(0, fsp.TauName, 1)
	b.ArcName(1, "a", 2)
	b.ArcName(0, "a", 3)
	b.ArcName(3, fsp.TauName, 4)
	b.ArcName(4, "b", 5)
	b.ArcName(2, "b", 6)
	f := b.MustBuild()
	p1, err := WeakPartition(f)
	if err != nil {
		t.Fatal(err)
	}
	sat, _, err := fsp.Saturate(f)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := partition.RefineStepsIndex(IndexOf(sat), ExtInitial(sat), -1)
	if !p1.Equal(p2) {
		t.Errorf("solvers disagree: %v vs %v", p1.Blocks(), p2.Blocks())
	}
}
