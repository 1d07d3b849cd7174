package reductions

import (
	"context"
	"math/rand"
	"testing"

	"ccs/internal/automata"
	"ccs/internal/core"
	"ccs/internal/expr"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/kequiv"
)

// universal decides L(f) = Sigma* for an observable standard process f as
// language equivalence, in the automata package, with the one-state
// automaton that accepts every word.
func universal(t *testing.T, f *fsp.FSP) bool {
	t.Helper()
	n, err := expr.ToNFA(f)
	if err != nil {
		t.Fatal(err)
	}
	symbols := f.Alphabet().NumObservable()
	all, err := automata.NewNFA(1, symbols, 0)
	if err != nil {
		t.Fatal(err)
	}
	all.SetAccept(0, true)
	for sym := 0; sym < symbols; sym++ {
		if err := all.AddArc(0, sym, 0); err != nil {
			t.Fatal(err)
		}
	}
	eq, _, err := automata.EquivalentNFA(n, all)
	if err != nil {
		t.Fatal(err)
	}
	return eq
}

func TestLemma42Universality(t *testing.T) {
	// L(M) = Sigma* iff L(M') = Sigma*, checked against the automata
	// package's language equivalence on random total NFAs.
	rng := rand.New(rand.NewSource(3))
	sawUniversal, sawNot := false, false
	for trial := 0; trial < 120; trial++ {
		m := gen.RandomTotal(rng, 2+rng.Intn(4), rng.Intn(4))
		mPrime, err := Lemma42(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		cls := fsp.Classify(mPrime)
		if !cls.Restricted || !cls.Observable {
			t.Fatalf("trial %d: M' must be restricted observable", trial)
		}

		uniM := universal(t, m)
		// In the restricted model every state accepts, so L(M') = Sigma*
		// iff the NFA view is universal.
		uniMP := universal(t, mPrime)
		if uniM != uniMP {
			t.Fatalf("trial %d: L(M)=Sigma* is %v but L(M')=Sigma* is %v", trial, uniM, uniMP)
		}
		if uniM {
			sawUniversal = true
		} else {
			sawNot = true
		}
	}
	if !sawUniversal || !sawNot {
		t.Logf("coverage note: universal=%v non-universal=%v", sawUniversal, sawNot)
	}
}

func TestLemma42EquivalenceForm(t *testing.T) {
	// The lemma's use in Theorem 4.1(b): L(p') = Sigma* iff p' ≈_1 q*,
	// where q* is the trivial total process over {a, b}.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		m := gen.RandomTotal(rng, 2+rng.Intn(3), rng.Intn(3))
		mPrime, err := Lemma42(m)
		if err != nil {
			t.Fatal(err)
		}
		uni := universal(t, mPrime)

		trivial := TrivialNFA("a", "b")
		eq1, err := kequiv.Equivalent(context.Background(), mPrime, trivial, 1)
		if err != nil {
			t.Fatal(err)
		}
		if uni != eq1 {
			t.Fatalf("trial %d: universality %v but ≈_1-to-trivial %v", trial, uni, eq1)
		}
	}
}

func TestLemma42RejectsBadInput(t *testing.T) {
	// Missing b-transitions.
	b := fsp.NewBuilder("partial")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	b.ArcName(1, "a", 0)
	b.ArcName(0, "b", 1)
	f := b.MustBuild()
	if _, err := Lemma42(f); err == nil {
		t.Error("partial process accepted")
	}
	// tau moves.
	b2 := fsp.NewBuilder("tau")
	b2.AddStates(1)
	b2.ArcName(0, fsp.TauName, 0)
	b2.ArcName(0, "a", 0)
	b2.ArcName(0, "b", 0)
	if _, err := Lemma42(b2.MustBuild()); err == nil {
		t.Error("tau process accepted")
	}
	// Wrong alphabet.
	b3 := fsp.NewBuilder("abc")
	b3.AddStates(1)
	b3.ArcName(0, "a", 0)
	b3.ArcName(0, "b", 0)
	b3.ArcName(0, "c", 0)
	if _, err := Lemma42(b3.MustBuild()); err == nil {
		t.Error("three-action process accepted")
	}
}

func TestLadderPreservesEquivalenceLevel(t *testing.T) {
	// Theorem 4.1(b): p ≈_k q iff p' ≈_{k+1} q'. Checked for both an
	// equivalent and an inequivalent seed pair across several levels.
	cases := []struct {
		name string
		p, q *fsp.FSP
		k    int // level at which p, q are compared
		want bool
	}{
		{"equal chains", gen.Chain(2), gen.Chain(2), 1, true},
		{"unequal chains", gen.Chain(1), gen.Chain(2), 1, false},
		{"trace-equal branching", galleryP(), galleryQ(), 1, true},
		{"branching at level 2", galleryP(), galleryQ(), 2, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eqK, err := kequiv.Equivalent(context.Background(), tc.p, tc.q, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if eqK != tc.want {
				t.Fatalf("setup: p ≈_%d q = %v, want %v", tc.k, eqK, tc.want)
			}
			pp, qp, err := Ladder(tc.p, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			eqK1, err := kequiv.Equivalent(context.Background(), pp, qp, tc.k+1)
			if err != nil {
				t.Fatal(err)
			}
			if eqK1 != eqK {
				t.Errorf("ladder broke the iff: p ≈_%d q = %v but p' ≈_%d q' = %v",
					tc.k, eqK, tc.k+1, eqK1)
			}
		})
	}
}

// galleryP/galleryQ are a(b+c)-style restricted observable processes with
// equal traces but different ≈_2 classes — here in unary form a(a+aa) vs
// aa+aaa so the ladder (which injects the action a) stays within one
// alphabet.
func galleryP() *fsp.FSP {
	b := fsp.NewBuilder("P")
	b.AddStates(6)
	b.ArcName(0, "a", 1)
	b.ArcName(1, "a", 2)
	b.ArcName(0, "a", 3)
	b.ArcName(3, "a", 4)
	b.ArcName(4, "a", 5)
	for s := fsp.State(0); s < 6; s++ {
		b.Accept(s)
	}
	return b.MustBuild()
}

func galleryQ() *fsp.FSP {
	b := fsp.NewBuilder("Q")
	b.AddStates(6)
	b.ArcName(0, "a", 1)
	b.ArcName(1, "a", 2)
	b.ArcName(1, "a", 3)
	b.ArcName(3, "a", 4)
	b.ArcName(0, "a", 5)
	for s := fsp.State(0); s < 6; s++ {
		b.Accept(s)
	}
	return b.MustBuild()
}

func TestLadderRepeatedApplication(t *testing.T) {
	// Applying the ladder twice shifts the level by two.
	p, q := gen.Chain(1), gen.Chain(2)
	p1, q1, err := Ladder(p, q)
	if err != nil {
		t.Fatal(err)
	}
	p2, q2, err := Ladder(p1, q1)
	if err != nil {
		t.Fatal(err)
	}
	// p !≈_1 q, so p2 !≈_3 q2; and since the chains differ in language the
	// separation persists at every level >= 1.
	eq3, err := kequiv.Equivalent(context.Background(), p2, q2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if eq3 {
		t.Errorf("double ladder lost the separation")
	}

	// E6: from the trace-equal pair that ≈_2 separates, each application
	// lifts the separation one level (Theorem 4.1(b)): after i
	// applications the pair is ≈_{1+i} but not ≈_{2+i}.
	p, q = galleryP(), galleryQ()
	for i := 0; i < 5; i++ {
		if i > 0 {
			if p, q, err = Ladder(p, q); err != nil {
				t.Fatal(err)
			}
		}
		for k, want := range map[int]bool{1 + i: true, 2 + i: false} {
			eq, err := kequiv.Equivalent(context.Background(), p, q, k)
			if err != nil {
				t.Fatal(err)
			}
			if eq != want {
				t.Errorf("after %d applications: ≈_%d = %v, want %v", i, k, eq, want)
			}
		}
	}
}

func TestLadderRejectsNonRestricted(t *testing.T) {
	b := fsp.NewBuilder("std")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	b.Accept(1)
	std := b.MustBuild()
	if _, _, err := Ladder(std, gen.Chain(1)); err == nil {
		t.Error("standard (non-restricted) input accepted")
	}
}

func TestChaosCharacterization(t *testing.T) {
	chaos := Chaos()
	cls := fsp.Classify(chaos)
	if !cls.Is(fsp.RestrictedObservableUnary) {
		t.Fatalf("chaos must be r.o.u.")
	}
	// chaos ≈_2 chaos, trivially.
	eq, err := kequiv.Equivalent(context.Background(), chaos, chaos, 2)
	if err != nil || !eq {
		t.Fatalf("chaos not ≈_2 itself: %v %v", eq, err)
	}
	// A plain total cycle is NOT ≈_2 chaos (it never refuses).
	eq, err = kequiv.Equivalent(context.Background(), gen.Cycle(1), chaos, 2)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Errorf("total cycle ≈_2 chaos reported")
	}
	// But the cycle IS trace equivalent to chaos (both a*).
	eq1, err := kequiv.Equivalent(context.Background(), gen.Cycle(1), chaos, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !eq1 {
		t.Errorf("cycle and chaos must be ≈_1 (both accept a*)")
	}
}

func TestTrivialNFA(t *testing.T) {
	// q* is one state with a self-loop on every action (Fig. 5d).
	q := TrivialNFA("a", "b")
	if q.NumStates() != 1 {
		t.Fatalf("q* has %d states, want 1", q.NumStates())
	}
	for _, a := range q.Alphabet().Observable() {
		if d := q.Dest(0, a); len(d) != 1 || d[0] != 0 {
			t.Errorf("q* on %s goes to %v, want itself", q.Alphabet().Name(a), d)
		}
	}
	cls := fsp.Classify(q)
	if !cls.Restricted || !cls.Observable || !cls.Deterministic {
		t.Errorf("q* should be restricted observable deterministic")
	}
}

func TestAcceptToDead(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tested := 0
	for trial := 0; tested < 60 && trial < 500; trial++ {
		m := gen.Random(rng, 2+rng.Intn(5), rng.Intn(10), 2, 0)
		if m.Accepting(m.Start()) && len(m.Arcs(m.Start())) > 0 {
			// Precondition ε ∉ L(m) violated; covered separately below.
			continue
		}
		tested++
		md, err := AcceptToDead(m)
		if err != nil {
			t.Fatal(err)
		}
		// Language preserved.
		n1, err := expr.ToNFA(m)
		if err != nil {
			t.Fatal(err)
		}
		n2, err := expr.ToNFA(md)
		if err != nil {
			t.Fatal(err)
		}
		eq, w, err := automata.EquivalentNFA(n1, n2)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Fatalf("trial %d: language changed, witness %v", trial, w)
		}
		// Accepting iff dead... except never-accepting dead states, which
		// the transform leaves alone; the paper only needs "accepting ⊆
		// dead" plus language preservation, and live states must never
		// accept.
		for s := 0; s < md.NumStates(); s++ {
			acc := md.Accepting(fsp.State(s))
			dead := len(md.Arcs(fsp.State(s))) == 0
			if acc && !dead {
				t.Fatalf("tested %d: state %d accepting but live", tested, s)
			}
		}
	}
	if tested < 30 {
		t.Fatalf("only %d instances satisfied the precondition", tested)
	}

	// Precondition enforcement.
	b := fsp.NewBuilder("eps")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	b.Accept(0)
	if _, err := AcceptToDead(b.MustBuild()); err == nil {
		t.Error("live accepting start accepted")
	}
}

func TestTheorem51Reduction(t *testing.T) {
	// L(p) = L(q) iff p' ≡ q', validated on random restricted observable
	// pairs with both verdicts exercised.
	rng := rand.New(rand.NewSource(33))
	sawEq, sawNeq := false, false
	for trial := 0; trial < 80; trial++ {
		p := gen.RandomRestricted(rng, 2+rng.Intn(3), rng.Intn(6), 2)
		var q *fsp.FSP
		if rng.Intn(2) == 0 {
			q = p // force language equality half the time
		} else {
			q = gen.RandomRestricted(rng, 2+rng.Intn(3), rng.Intn(6), 2)
		}
		langEq, err := kequiv.Equivalent(context.Background(), p, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := Theorem51(p)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := Theorem51(q)
		if err != nil {
			t.Fatal(err)
		}
		failEq, _, err := failuresEquivalent(pp, qp)
		if err != nil {
			t.Fatal(err)
		}
		if langEq != failEq {
			t.Fatalf("trial %d: L-equal=%v but ≡=%v", trial, langEq, failEq)
		}
		if langEq {
			sawEq = true
		} else {
			sawNeq = true
		}
	}
	if !sawEq || !sawNeq {
		t.Errorf("coverage: eq=%v neq=%v", sawEq, sawNeq)
	}
}

func TestTheorem51RejectsNonRestricted(t *testing.T) {
	b := fsp.NewBuilder("std")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	b.Accept(1)
	if _, err := Theorem51(b.MustBuild()); err == nil {
		t.Error("standard input accepted")
	}
}

// failuresEquivalent avoids importing the failures package at the top level
// of every test; thin indirection for readability.
func failuresEquivalent(p, q *fsp.FSP) (bool, any, error) {
	eq, w, err := failuresEq(p, q)
	return eq, w, err
}

func TestStrongEquivalencePreservedByDisjointUnionPlumbing(t *testing.T) {
	// Sanity: the ladder's internal disjoint union does not disturb the
	// seed processes — p' always has exactly one a-derivative class.
	p, q := gen.Chain(2), gen.Chain(2)
	pp, qp, err := Ladder(p, q)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := core.StrongEquivalent(pp, qp)
	if err != nil {
		t.Fatal(err)
	}
	// For identical seeds, a·(p∪q) and (a·p)∪(a·q) are in fact strongly
	// equivalent (both a-arcs of q' lead to bisimilar states).
	if !eq {
		t.Errorf("ladder of identical seeds should be strongly equivalent")
	}
}
