package engine

import (
	"context"
	"strings"
	"testing"

	"ccs/internal/fsp"
)

// malformed returns an *fsp.FSP that panics deep inside any algorithm: the
// exported zero value has no states, no alphabet and no variable table, so
// the first accessor dereference blows up. It stands in for any process
// that violates the builder's invariants.
func malformed() *fsp.FSP { return &fsp.FSP{} }

func parseOrDie(t *testing.T, text string) *fsp.FSP {
	t.Helper()
	p, err := fsp.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const twoChainText = `fsp aa
states 3
start 0
ext 0 x
ext 1 x
ext 2 x
arc 0 a 1
arc 1 a 2
`

// TestCheckRecoversPanics: a malformed process must surface as the query's
// error, never as a crash, for every relation.
func TestCheckRecoversPanics(t *testing.T) {
	c := New()
	good := parseOrDie(t, twoChainText)
	ctx := context.Background()
	for _, rel := range []Relation{Strong, Weak, Trace, Failure, Congruence, Simulation, K, Limited} {
		if _, err := c.Check(ctx, Query{P: malformed(), Q: good, Rel: rel, K: 1}); err == nil {
			t.Errorf("%v: malformed P produced no error", rel)
		}
		if _, err := c.Check(ctx, Query{P: good, Q: malformed(), Rel: rel, K: 1}); err == nil {
			t.Errorf("%v: malformed Q produced no error", rel)
		}
	}
	// The checker must remain usable afterwards.
	if eq, err := c.Check(ctx, Query{P: good, Q: good, Rel: Weak}); err != nil || !eq {
		t.Fatalf("checker poisoned after panic recovery: eq=%v err=%v", eq, err)
	}
}

// TestCheckAllDrainsPastPanic is the batch contract: one malformed
// process among a checker's queries yields an error for that query while
// every other query, before and after it, completes with a verdict.
func TestCheckAllDrainsPastPanic(t *testing.T) {
	c := New()
	good := parseOrDie(t, twoChainText)
	same := parseOrDie(t, twoChainText)
	queries := []Query{
		{P: good, Q: same, Rel: Strong},
		{P: malformed(), Q: good, Rel: Weak},
		{P: good, Q: same, Rel: Weak},
		{P: malformed(), Q: malformed(), Rel: Strong},
		{P: good, Q: same, Rel: Trace},
	}
	for i, q := range queries {
		eq, err := c.Check(context.Background(), q)
		bad := i == 1 || i == 3
		if bad && err == nil {
			t.Errorf("query %d: malformed process produced no error", i)
		}
		if !bad {
			if err != nil {
				t.Errorf("query %d: unexpected error: %v", i, err)
			} else if !eq {
				t.Errorf("query %d: want equivalent", i)
			}
		}
	}
}

// TestStructuralCacheSharing is the regression test for the
// pointer-identity cache bug: parsing the same process text twice must not
// double every artifact.
func TestStructuralCacheSharing(t *testing.T) {
	c := New()
	p1 := parseOrDie(t, twoChainText)
	p2 := parseOrDie(t, twoChainText)
	other := parseOrDie(t, strings.Replace(twoChainText, "arc 1 a 2", "arc 1 b 2", 1))
	ctx := context.Background()
	if _, err := c.Check(ctx, Query{P: p1, Q: other, Rel: Weak}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Check(ctx, Query{P: p2, Q: other, Rel: Weak}); err != nil {
		t.Fatal(err)
	}
	// p1 and p2 are structurally one process: the cache must hold exactly
	// two canonical records, the chain and `other`. Quotients live on
	// their inputs' records and add none. Without structural sharing p2
	// would add a record, and the chain's artifacts would be derived
	// twice.
	if got := c.Processes(); got != 2 {
		t.Errorf("cache holds %d canonical processes, want 2 (structural sharing)", got)
	}
	// And the shared record really carries the artifacts: deriving via p2
	// must return the identical quotient pointer computed via p1.
	q1, err := c.WeakQuotient(p1)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.WeakQuotient(p2)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Error("structurally equal processes did not share the cached quotient")
	}
}
