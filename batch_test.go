package ccs_test

import (
	"context"
	"testing"

	"ccs"
)

func mustExpr(t *testing.T, src string) *ccs.Process {
	t.Helper()
	p, err := ccs.FromExpression(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCheckerCheck(t *testing.T) {
	c := ccs.NewChecker()
	ctx := context.Background()
	aa := mustExpr(t, "aa")
	aPlusA := mustExpr(t, "a+a")
	a := mustExpr(t, "a")
	eq, err := c.Check(ctx, aPlusA, a, ccs.Strong, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("a+a ~ a expected")
	}
	eq, err = c.Check(ctx, aa, a, ccs.Trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Error("aa and a are not trace equivalent")
	}
}

// TestCheckAllMixedRelations: one DoAll batch mixes relations, failure
// equivalence and the ≈_2 approximant included, and answers each request
// in input order.
func TestCheckAllMixedRelations(t *testing.T) {
	// Failure equivalence wants restricted processes (every state
	// accepting); the interchange format builds one directly.
	const restricted = `fsp r
states 2
start 0
ext 0 x
ext 1 x
arc 0 a 1
`
	reqs := []ccs.CheckRequest{
		{Relation: "strong", P: "expr:a+a", Q: "expr:a"},
		{Relation: "weak", P: "expr:aa", Q: "expr:a"},
		{Relation: "failure", P: restricted, Q: restricted},
		{Relation: "k2", P: "expr:a+a", Q: "expr:a"},
	}
	reps := ccs.NewChecker().DoAll(context.Background(), reqs, 2, nil)
	want := []bool{true, false, true, true}
	for i, r := range reps {
		if r.Error != nil {
			t.Fatalf("request %d: %v", i, r.Error)
		}
		if r.Equivalent != want[i] || r.Relation != reqs[i].Relation {
			t.Errorf("request %d = %v under %q, want %v under %q", i, r.Equivalent, r.Relation, want[i], reqs[i].Relation)
		}
	}
}

// TestCheckAllBadRelation: Checker.Check rejects a Relation value outside
// the enumeration, and the checker still answers the next query.
func TestCheckAllBadRelation(t *testing.T) {
	c := ccs.NewChecker()
	a := mustExpr(t, "a")
	if _, err := c.Check(context.Background(), a, a, ccs.Relation(42), 0); err == nil {
		t.Error("unknown relation must error")
	}
	if eq, err := c.Check(context.Background(), a, a, ccs.Strong, 0); err != nil || !eq {
		t.Errorf("valid query after a bad one must still run: %v %v", eq, err)
	}
}

// TestCheckAllCancelled: a batch whose context is already cancelled
// reports every request as canceled instead of deciding it.
func TestCheckAllCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reps := ccs.NewChecker().DoAll(ctx, []ccs.CheckRequest{{Relation: "strong", P: "expr:a", Q: "expr:a"}}, 1, nil)
	if reps[0].Error == nil || reps[0].Error.Kind != ccs.ErrorKindCanceled {
		t.Errorf("cancelled context must surface as a canceled report: %+v", reps[0])
	}
}

// TestCheckerReuseAcrossBatches exercises the documented cache contract:
// the same *Process value fed to successive checks keeps its artifacts.
func TestCheckerReuseAcrossBatches(t *testing.T) {
	c := ccs.NewChecker()
	ctx := context.Background()
	p := mustExpr(t, "(ab)*")
	q := mustExpr(t, "(ab)*+0")
	processes := 0
	for round := 0; round < 3; round++ {
		eq, err := c.Check(ctx, p, q, ccs.Weak, 0)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !eq {
			t.Errorf("round %d: (ab)* ≈ (ab)*+0 expected", round)
		}
		if round == 0 {
			processes = c.Stats().Processes
			continue
		}
		if got := c.Stats().Processes; got != processes {
			t.Errorf("round %d: cache grew from %d to %d records on a repeated pair", round, processes, got)
		}
	}
}
