package failures

import (
	"context"
	"math/rand"
	"testing"

	"ccs/internal/fsp"
	"ccs/internal/gen"
)

func TestRefinesBasic(t *testing.T) {
	// aa refines aa+a (the nondeterministic spec allows the deadlock, the
	// deterministic impl never takes it), but not the other way around.
	impl, spec := tracePair() // impl = aa, spec = aa + a
	ok, w, err := RefinesProcesses(spec, impl)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("aa must refine aa+a; witness (%v,%v)", w.Failure.Trace, w.Failure.Refusal)
	}
	ok, w, err = RefinesProcesses(impl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Errorf("aa+a must NOT refine aa (it can refuse after one a)")
	}
	if w == nil {
		t.Fatal("missing witness")
	}
	// The witness failure belongs to the non-refining implementation (here:
	// aa+a) and not to the spec (aa).
	inSpec, err := Has(impl, impl.Start(), w.Failure)
	if err != nil {
		t.Fatal(err)
	}
	inImpl, err := Has(spec, spec.Start(), w.Failure)
	if err != nil {
		t.Fatal(err)
	}
	if inSpec || !inImpl {
		t.Errorf("witness sits on the wrong side: inSpec=%v inImpl=%v", inSpec, inImpl)
	}
}

func TestRefinesTraceExcess(t *testing.T) {
	// a+aa does not refine a: the extra trace aa is a failure with empty
	// refusal that the spec lacks.
	b1 := fsp.NewBuilder("a")
	b1.AddStates(2)
	b1.ArcName(0, "a", 1)
	spec := restricted(b1, 2)

	b2 := fsp.NewBuilder("a+aa")
	b2.AddStates(4)
	b2.ArcName(0, "a", 1)
	b2.ArcName(0, "a", 2)
	b2.ArcName(2, "a", 3)
	impl := restricted(b2, 4)

	ok, w, err := RefinesProcesses(spec, impl)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("a+aa must not refine a")
	}
	if len(w.Failure.Trace) != 2 {
		t.Errorf("witness trace = %v, want length 2", w.Failure.Trace)
	}
}

func TestMutualRefinementIsEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 120; trial++ {
		p := gen.RandomRestricted(rng, 2+rng.Intn(3), rng.Intn(6), 2)
		q := gen.RandomRestricted(rng, 2+rng.Intn(3), rng.Intn(6), 2)
		fwd, _, err := RefinesProcesses(p, q)
		if err != nil {
			t.Fatal(err)
		}
		bwd, _, err := RefinesProcesses(q, p)
		if err != nil {
			t.Fatal(err)
		}
		eq, _, err := Equivalent(context.Background(), p, q)
		if err != nil {
			t.Fatal(err)
		}
		if (fwd && bwd) != eq {
			t.Fatalf("trial %d: mutual refinement %v/%v but ≡ %v", trial, fwd, bwd, eq)
		}
	}
}

func TestRefinesReflexiveTransitive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 60; trial++ {
		p := gen.RandomRestricted(rng, 2+rng.Intn(3), rng.Intn(6), 2)
		q := gen.RandomRestricted(rng, 2+rng.Intn(3), rng.Intn(6), 2)
		r := gen.RandomRestricted(rng, 2+rng.Intn(3), rng.Intn(6), 2)
		refl, _, err := RefinesProcesses(p, p)
		if err != nil {
			t.Fatal(err)
		}
		if !refl {
			t.Fatal("refinement not reflexive")
		}
		pq, _, err := RefinesProcesses(p, q)
		if err != nil {
			t.Fatal(err)
		}
		qr, _, err := RefinesProcesses(q, r)
		if err != nil {
			t.Fatal(err)
		}
		if pq && qr {
			pr, _, err := RefinesProcesses(p, r)
			if err != nil {
				t.Fatal(err)
			}
			if !pr {
				t.Fatal("refinement not transitive")
			}
		}
	}
}

func TestRefinesRejectsNonRestricted(t *testing.T) {
	b := fsp.NewBuilder("std")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	b.Accept(1)
	std := b.MustBuild()
	if _, _, err := RefinesProcesses(std, std); err == nil {
		t.Error("non-restricted input accepted")
	}
}
