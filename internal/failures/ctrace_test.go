package failures

import (
	"context"
	"math/rand"
	"testing"

	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/kequiv"
)

func TestCompletedTraceSeparatesFromTrace(t *testing.T) {
	// aa vs aa+a: trace equal but "a" is a completed trace only on the
	// right.
	p, q := tracePair()
	eq, w, err := CompletedTraceEquivalent(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("aa and aa+a must differ on completed traces")
	}
	if w == nil || len(w.Failure.Trace) != 1 {
		t.Errorf("witness should be the completed trace 'a': %+v", w)
	}
}

func TestCompletedTraceCoarserThanFailures(t *testing.T) {
	// a(b+c) + ab + ac vs ab + ac (over Sigma={a,b,c}): completed traces
	// coincide (ab and ac both dead-end), but the refusals after 'a'
	// differ... actually these ARE failure-equivalent (see the expr
	// tests). Build instead: P = a(b+c) + a·b, Q = a·b + a·c:
	// completed traces of P: {ab, ac}; of Q: {ab, ac} — equal.
	// Failures: P after 'a' can refuse neither b nor c in the (b+c)
	// branch... P's a-derivatives: {b+c, b-only}; Q's: {b-only, c-only}.
	// Q can refuse {b} after a, P cannot... P's b-only branch refuses {c}
	// wait it refuses c but not b; P's (b+c) branch refuses neither.
	// Max refusals P: {a,c}; Q: {a,c},{a,b}: differ.
	pb := fsp.NewBuilder("P")
	pb.AddStates(6)
	pb.ArcName(0, "a", 1)
	pb.ArcName(1, "b", 2)
	pb.ArcName(1, "c", 3)
	pb.ArcName(0, "a", 4)
	pb.ArcName(4, "b", 5)
	p := restricted(pb, 6)

	qb := fsp.NewBuilder("Q")
	qb.AddStates(5)
	qb.ArcName(0, "a", 1)
	qb.ArcName(1, "b", 2)
	qb.ArcName(0, "a", 3)
	qb.ArcName(3, "c", 4)
	q := restricted(qb, 5)

	ctEq, _, err := CompletedTraceEquivalent(p, q)
	if err != nil {
		t.Fatal(err)
	}
	if !ctEq {
		t.Fatalf("completed traces must coincide")
	}
	failEq, _, err := Equivalent(context.Background(), p, q)
	if err != nil {
		t.Fatal(err)
	}
	if failEq {
		t.Fatalf("failures must differ (refusal {a,b} after 'a' only in Q)")
	}
}

func TestCompletedTraceSandwich(t *testing.T) {
	// ≡ ⊆ completed-trace ⊆ ≈_1 on random restricted pairs.
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 150; trial++ {
		p := gen.RandomRestricted(rng, 2+rng.Intn(3), rng.Intn(6), 2)
		q := gen.RandomRestricted(rng, 2+rng.Intn(3), rng.Intn(6), 2)
		failEq, _, err := Equivalent(context.Background(), p, q)
		if err != nil {
			t.Fatal(err)
		}
		ctEq, w, err := CompletedTraceEquivalent(p, q)
		if err != nil {
			t.Fatal(err)
		}
		traceEq, err := kequiv.Equivalent(context.Background(), p, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		if failEq && !ctEq {
			t.Fatalf("trial %d: ≡ holds but completed-trace fails", trial)
		}
		if ctEq && !traceEq {
			t.Fatalf("trial %d: completed-trace holds but ≈_1 fails", trial)
		}
		if !ctEq && w != nil && len(w.Failure.Trace) == 0 && w.Failure.Refusal == 0 {
			t.Fatalf("trial %d: empty witness", trial)
		}
	}
}

func TestCompletedTraceRejectsNonRestricted(t *testing.T) {
	b := fsp.NewBuilder("std")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	b.Accept(1)
	std := b.MustBuild()
	if _, _, err := CompletedTraceEquivalent(std, std); err == nil {
		t.Error("non-restricted input accepted")
	}
}

func TestCompletedTraceReflexive(t *testing.T) {
	p, _ := failurePair()
	eq, _, err := CompletedTraceEquivalent(p, p)
	if err != nil || !eq {
		t.Errorf("not reflexive: %v %v", eq, err)
	}
}
