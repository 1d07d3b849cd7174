package core_test

import (
	"math/rand"
	"testing"

	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// fluff returns a process with inessential tau moves and nondeterminism
// layered over f: every arc may gain a twin routed through a fresh tau
// "settling" state equivalent to its target, and every state — including
// the start, which exercises the ≈ᶜ root condition — may gain a tau
// refresh twin. The result is generally NOT ≈ᶜ to f (a refresh twin at
// the root introduces an initial tau), which is fine: the quotient is
// checked against the fluffed process itself.
func fluff(rng *rand.Rand, f *fsp.FSP) *fsp.FSP {
	b := fsp.NewBuilder(f.Name() + "-fluffed")
	n := f.NumStates()
	b.AddStates(n)
	copyExt := func(dst fsp.State, src fsp.State) {
		for _, id := range f.Ext(src).IDs() {
			b.Extend(dst, f.Vars().Name(id))
		}
	}
	for s := 0; s < n; s++ {
		copyExt(fsp.State(s), fsp.State(s))
	}
	b.SetStart(f.Start())
	for s := 0; s < n; s++ {
		for _, a := range f.Arcs(fsp.State(s)) {
			name := f.Alphabet().Name(a.Act)
			b.ArcName(fsp.State(s), name, a.To)
			if rng.Intn(2) == 0 {
				settle := b.AddState()
				copyExt(settle, a.To)
				b.ArcName(fsp.State(s), name, settle)
				b.ArcName(settle, fsp.TauName, a.To)
			}
		}
		if rng.Intn(3) == 0 {
			twin := b.AddState()
			copyExt(twin, fsp.State(s))
			b.ArcName(fsp.State(s), fsp.TauName, twin)
			b.ArcName(twin, fsp.TauName, fsp.State(s))
		}
	}
	return b.MustBuild()
}

// TestQuotientCongruenceMinimal: over the fluffed gallery (and fluffed
// random processes), QuotientCongruence must return a process that is ≈ᶜ
// to its source and ≈ᶜ-MINIMAL — no two distinct output states related by
// ≈ᶜ. Distinct output states are distinct ≈-classes, so the weak
// partition of the quotient must be discrete; the explicit pairwise ≈ᶜ
// check then documents the claimed property directly (≈ᶜ ⊆ ≈ makes it
// implied, but the test states the contract it pins).
func TestQuotientCongruenceMinimal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	bases := []*fsp.FSP{
		gen.BufferCell(3),
		gen.LossyCell(3),
		gen.CounterSpec(4),
		gen.TokenRingSpec(),
		gen.NondetCounterSpec(3),
		gen.NondetTokenRingSpec(),
	}
	for i := 0; i < 30; i++ {
		bases = append(bases, gen.Random(rng, 2+rng.Intn(6), 2+rng.Intn(12), 3, 0.3))
	}
	for i, base := range bases {
		f := fluff(rng, base)
		q, _, err := core.QuotientCongruence(f)
		if err != nil {
			t.Fatalf("case %d (%s): %v", i, f.Name(), err)
		}
		if ok, err := core.ObservationCongruent(f, q); err != nil {
			t.Fatal(err)
		} else if !ok {
			t.Fatalf("case %d (%s): quotient not ≈ᶜ to source\n%s", i, f.Name(), fsp.FormatString(f))
		}
		part, err := core.WeakPartition(q)
		if err != nil {
			t.Fatal(err)
		}
		if part.NumBlocks() != q.NumStates() {
			t.Fatalf("case %d (%s): quotient has ≈-equivalent distinct states (%d states, %d classes)",
				i, f.Name(), q.NumStates(), part.NumBlocks())
		}
		for a := 0; a < q.NumStates(); a++ {
			for b := a + 1; b < q.NumStates(); b++ {
				if ok, err := core.ObservationCongruentStates(q, fsp.State(a), fsp.State(b)); err != nil {
					t.Fatal(err)
				} else if ok {
					t.Fatalf("case %d (%s): quotient states %d and %d are ≈ᶜ-related — not minimal",
						i, f.Name(), a, b)
				}
			}
		}
	}
}

// buildIdleStation replicates the token ring's idle station: a churn-long
// internal tau refresh cycle (states 2..2+churn-1, the start sits at the
// cycle base), "recv"/"work"/"send'" handling the token. All churn states
// are one ≈-class and the start has a direct in-class tau — the exact
// shape that used to force a fresh-root re-expansion in every idle
// component of a composed ring.
func buildIdleStation(churn int) *fsp.FSP {
	b := fsp.NewBuilder("station-idle")
	n := 2 + churn
	b.AddStates(n)
	b.ArcName(0, "work", 1)
	b.ArcName(1, "send'", 2)
	for i := 0; i < churn; i++ {
		b.ArcName(fsp.State(2+i), fsp.TauName, fsp.State(2+(i+1)%churn))
	}
	b.ArcName(2, "recv", 0)
	for s := 0; s < n; s++ {
		b.Accept(fsp.State(s))
	}
	b.SetStart(2)
	return b.MustBuild()
}

// TestQuotientCongruenceIdleStationRegression pins the idle-component
// start-state re-expansion case: the minimal quotient must collapse the
// churn cycle AND the root into exactly 3 states (work-pending,
// pass-pending, idle-with-tau-self-loop). A fresh duplicated root would
// pay a 4th state, and in an n-station ring that extra root state
// multiplies the product pair space by up to 2^(n-1).
func TestQuotientCongruenceIdleStationRegression(t *testing.T) {
	f := buildIdleStation(3)
	q, _, err := core.QuotientCongruence(f)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := core.ObservationCongruent(f, q); err != nil || !ok {
		t.Fatalf("idle station quotient not ≈ᶜ to station (%v, %v)", ok, err)
	}
	if got := q.NumStates(); got != 3 {
		t.Fatalf("idle station minimal quotient has %d states, want 3", got)
	}
	loop := false
	for _, to := range q.Dest(q.Start(), fsp.Tau) {
		if to == q.Start() {
			loop = true
		}
	}
	if !loop {
		t.Fatal("idle station quotient root has no tau self-loop — root condition witness missing")
	}
}
