package failures

import (
	"context"
	"testing"

	"ccs/internal/fsp"
)

// restricted marks all states accepting after building.
func restricted(b *fsp.Builder, n int) *fsp.FSP {
	for s := 0; s < n; s++ {
		b.Accept(fsp.State(s))
	}
	return b.MustBuild()
}

// tracePair returns the classic trace-equal, failure-different r.o.u. pair:
// P = a·a and Q = a·a + a (Q can deadlock after one a).
func tracePair() (*fsp.FSP, *fsp.FSP) {
	b1 := fsp.NewBuilder("aa")
	b1.AddStates(3)
	b1.ArcName(0, "a", 1)
	b1.ArcName(1, "a", 2)
	p := restricted(b1, 3)

	b2 := fsp.NewBuilder("aa+a")
	b2.AddStates(4)
	b2.ArcName(0, "a", 1)
	b2.ArcName(1, "a", 2)
	b2.ArcName(0, "a", 3) // 3 is a dead end
	q := restricted(b2, 4)
	return p, q
}

// failurePair returns a failure-equivalent but not observationally
// equivalent r.o.u. pair:
//
//	P = a·a·a + a·a
//	Q = a·a·a + a·a + a·(a + a·a)
//
// Q's extra branch has an a-derivative with both a dead and a live
// continuation, which no a-derivative of P matches (breaking ≈_2), but the
// per-trace refusal antichains coincide.
func failurePair() (*fsp.FSP, *fsp.FSP) {
	b1 := fsp.NewBuilder("P")
	b1.AddStates(6)
	b1.ArcName(0, "a", 1)
	b1.ArcName(1, "a", 2)
	b1.ArcName(2, "a", 3)
	b1.ArcName(0, "a", 4)
	b1.ArcName(4, "a", 5)
	p := restricted(b1, 6)

	b2 := fsp.NewBuilder("Q")
	b2.AddStates(10)
	b2.ArcName(0, "a", 1)
	b2.ArcName(1, "a", 2)
	b2.ArcName(2, "a", 3)
	b2.ArcName(0, "a", 4)
	b2.ArcName(4, "a", 5)
	b2.ArcName(0, "a", 6)
	b2.ArcName(6, "a", 7) // dead after two
	b2.ArcName(6, "a", 8)
	b2.ArcName(8, "a", 9)
	q := restricted(b2, 10)
	return p, q
}

func TestTraceEqualFailureDifferent(t *testing.T) {
	p, q := tracePair()
	eq, w, err := Equivalent(context.Background(), p, q)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatalf("aa ≡ aa+a reported, but refusals after 'a' differ")
	}
	if w == nil {
		t.Fatal("no witness returned")
	}
	// The witness failure must belong to exactly one process.
	inP, err := Has(p, p.Start(), w.Failure)
	if err != nil {
		t.Fatal(err)
	}
	inQ, err := Has(q, q.Start(), w.Failure)
	if err != nil {
		t.Fatal(err)
	}
	if inP == inQ {
		t.Errorf("witness (%v, %v) does not distinguish: inP=%v inQ=%v",
			w.Failure.Trace, w.Failure.Refusal, inP, inQ)
	}
	if w.InFirst != inP {
		t.Errorf("witness side flag wrong: InFirst=%v inP=%v", w.InFirst, inP)
	}
}

func TestFailureEquivalentPair(t *testing.T) {
	p, q := failurePair()
	eq, w, err := Equivalent(context.Background(), p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("P ≡ Q must hold; witness (%v, %v)", w.Failure.Trace, w.Failure.Refusal)
	}
}

func TestReflexive(t *testing.T) {
	p, _ := tracePair()
	eq, _, err := Equivalent(context.Background(), p, p)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("≡ not reflexive")
	}
}

func TestRejectsNonRestricted(t *testing.T) {
	b := fsp.NewBuilder("std")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	b.Accept(1) // state 0 not accepting: standard, not restricted
	f := b.MustBuild()
	if _, _, err := Equivalent(context.Background(), f, f); err == nil {
		t.Error("non-restricted process accepted")
	}
	if _, err := Enumerate(f, 0, 2); err == nil {
		t.Error("Enumerate accepted non-restricted process")
	}
	if _, err := Has(f, 0, Failure{}); err == nil {
		t.Error("Has accepted non-restricted process")
	}
}

func TestEnumerate(t *testing.T) {
	p, _ := tracePair() // a·a chain
	fails, err := Enumerate(p, p.Start(), 3)
	if err != nil {
		t.Fatal(err)
	}
	// Maximal refusals: (ε, {}), (a, {}), (aa, {a}).
	if len(fails) != 3 {
		t.Fatalf("Enumerate = %d failures, want 3: %v", len(fails), fails)
	}
	a, _ := p.Alphabet().Lookup("a")
	last := fails[2]
	if len(last.Trace) != 2 || !last.Refusal.Has(a) {
		t.Errorf("deepest failure wrong: %v", last)
	}
	// Every enumerated failure must pass Has.
	for _, fl := range fails {
		ok, err := Has(p, p.Start(), fl)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("enumerated failure (%v,%v) rejected by Has", fl.Trace, fl.Refusal)
		}
	}
}

func TestEnumerateCrossValidatesEquivalence(t *testing.T) {
	// For bounded-depth trees, comparing enumerated failure sets must agree
	// with the decision procedure.
	p, q := failurePair()
	fp, err := Enumerate(p, p.Start(), 4)
	if err != nil {
		t.Fatal(err)
	}
	fq, err := Enumerate(q, q.Start(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Downward-closure comparison: every failure of p must hold in q and
	// vice versa.
	for _, fl := range fp {
		ok, err := Has(q, q.Start(), fl)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("failure (%v,%v) of P missing from Q", fl.Trace, fl.Refusal)
		}
	}
	for _, fl := range fq {
		ok, err := Has(p, p.Start(), fl)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("failure (%v,%v) of Q missing from P", fl.Trace, fl.Refusal)
		}
	}
}

func TestWitnessOnMissingTrace(t *testing.T) {
	// P = a, Q = a + a·a: Q has the trace aa, P does not.
	b1 := fsp.NewBuilder("a")
	b1.AddStates(2)
	b1.ArcName(0, "a", 1)
	p := restricted(b1, 2)

	b2 := fsp.NewBuilder("a+aa")
	b2.AddStates(4)
	b2.ArcName(0, "a", 1)
	b2.ArcName(0, "a", 2)
	b2.ArcName(2, "a", 3)
	q := restricted(b2, 4)

	eq, w, err := Equivalent(context.Background(), p, q)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("a ≡ a+aa reported")
	}
	if w == nil {
		t.Fatal("no witness")
	}
	inP, _ := Has(p, p.Start(), w.Failure)
	inQ, _ := Has(q, q.Start(), w.Failure)
	if inP == inQ {
		t.Errorf("witness does not distinguish")
	}
}

func TestTauSensitiveFailures(t *testing.T) {
	// tau-branching changes refusals: P = a + tau·b can refuse a (after the
	// tau), while Q = a + b refuses neither initially.
	b1 := fsp.NewBuilder("a+tau.b")
	b1.AddStates(4)
	b1.ArcName(0, "a", 1)
	b1.ArcName(0, fsp.TauName, 2)
	b1.ArcName(2, "b", 3)
	p := restricted(b1, 4)

	b2 := fsp.NewBuilder("a+b")
	b2.AddStates(3)
	b2.ArcName(0, "a", 1)
	b2.ArcName(0, "b", 2)
	q := restricted(b2, 3)

	eq, w, err := Equivalent(context.Background(), p, q)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("a+tau.b ≡ a+b reported")
	}
	a, _ := p.Alphabet().Lookup("a")
	if w != nil && len(w.Failure.Trace) == 0 && !w.Failure.Refusal.Has(a) {
		t.Errorf("expected an initial refusal involving 'a', got %v", w.Failure.Refusal)
	}
}

func TestWitnessAcrossDifferentAlphabets(t *testing.T) {
	// Regression: when the operands' alphabets differ, the decider
	// harmonizes them via disjoint union; the witness must carry the
	// harmonized alphabet so rendering never indexes out of range.
	b1 := fsp.NewBuilder("onlyA")
	b1.AddStates(2)
	b1.ArcName(0, "a", 1)
	p := restricted(b1, 2)

	b2 := fsp.NewBuilder("onlyB")
	b2.AddStates(2)
	b2.ArcName(0, "b", 1)
	q := restricted(b2, 2)

	eq, w, err := Equivalent(context.Background(), p, q)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("processes over disjoint actions reported equivalent")
	}
	if w == nil || w.Alphabet == nil {
		t.Fatal("witness missing alphabet")
	}
	if got := w.Format(); got == "" {
		t.Errorf("witness failed to render")
	}

	// Same for completed-trace and refinement.
	if _, cw, err := CompletedTraceEquivalent(p, q); err != nil {
		t.Fatal(err)
	} else if cw != nil && cw.Alphabet == nil {
		t.Error("completed-trace witness missing alphabet")
	}
	if _, rw, err := RefinesProcesses(p, q); err != nil {
		t.Fatal(err)
	} else if rw != nil && rw.Alphabet == nil {
		t.Error("refinement witness missing alphabet")
	}
}

func TestRefusalSetOps(t *testing.T) {
	alpha := fsp.NewAlphabet("a", "b", "c")
	a, _ := alpha.Lookup("a")
	c, _ := alpha.Lookup("c")
	r := RefusalSet(0).With(a).With(c)
	if !r.Has(a) || !r.Has(c) {
		t.Errorf("membership wrong")
	}
	if got := r.Format(alpha); got != "{a,c}" {
		t.Errorf("Format = %q", got)
	}
	if !RefusalSet(0).SubsetOf(r) || r.SubsetOf(RefusalSet(0).With(a)) {
		t.Errorf("SubsetOf wrong")
	}
	if FormatTrace(nil, alpha) != "ε" {
		t.Errorf("empty trace format wrong")
	}
	if FormatTrace([]fsp.Action{a, c}, alpha) != "a.c" {
		t.Errorf("trace format wrong: %s", FormatTrace([]fsp.Action{a, c}, alpha))
	}
}
