package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/obs"
)

// pollCtx counts Err() calls and trips after a budget, proving a path
// polls its context repeatedly rather than only at entry (the PR 6 gap).
type pollCtx struct {
	context.Context
	calls atomic.Int64
	after int64
}

func (c *pollCtx) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestCheckNetworkCancelsMidRun: the minimize-then-compose path must
// observe cancellation between component quotients and inside the
// product walk — not just at CheckNetwork entry.
func TestCheckNetworkCancelsMidRun(t *testing.T) {
	net := gen.TokenRing(8)
	spec := gen.TokenRingSpec()
	c := New()

	ctx := &pollCtx{Context: context.Background(), after: 2}
	if _, err := c.CheckNetwork(ctx, net, spec, Weak, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("CheckNetwork error = %v, want context.Canceled", err)
	}
	if got := ctx.calls.Load(); got < 3 {
		t.Fatalf("context polled %d times, want >= 3 (per-component polling)", got)
	}

	// The same query under a live context completes.
	eq, err := c.CheckNetwork(context.Background(), net, spec, Weak, 0)
	if err != nil {
		t.Fatalf("uncancelled CheckNetwork: %v", err)
	}
	if !eq {
		t.Fatalf("token ring not weakly equivalent to its spec")
	}
}

// TestCheckStagePolls: the pair path polls between the quotient and
// solve phases. A budget that survives the entry poll and the quotient
// phase must still get the query cancelled before the solve.
func TestCheckStagePolls(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p := gen.Random(rng, 40, 5, 3, 0.3)
	q := gen.Random(rng, 40, 5, 3, 0.3)
	c := New()
	ctx := &pollCtx{Context: context.Background(), after: 1}
	if _, err := c.Check(ctx, Query{P: p, Q: q, Rel: Weak}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Check error = %v, want context.Canceled", err)
	}
	if got := ctx.calls.Load(); got < 2 {
		t.Fatalf("context polled %d times, want >= 2 (stage polling)", got)
	}
}

// TestNetworkTraceSpans: a traced network query records the quotient and
// exploration phases with their route attributes, and the spans carry
// positive, ordered offsets.
func TestNetworkTraceSpans(t *testing.T) {
	net := gen.TokenRing(6)
	spec := gen.TokenRingSpec()
	c := New()

	tr := obs.NewTrace("")
	ctx := obs.WithTrace(context.Background(), tr)
	eq, info, err := c.CheckNetworkOTFInfo(ctx, net, spec, Weak, 0)
	if err != nil {
		t.Fatalf("CheckNetworkOTFInfo: %v", err)
	}
	if !eq || !info.OnTheFly {
		t.Fatalf("eq=%v route=%q, want on-the-fly equivalence", eq, info.Route)
	}
	phases := map[string]bool{}
	for _, sp := range tr.Spans() {
		phases[sp.Phase] = true
		if sp.Duration < 0 || sp.Start < 0 {
			t.Fatalf("span %q has negative timing", sp.Phase)
		}
	}
	for _, want := range []string{"quotient", "otf-explore"} {
		if !phases[want] {
			t.Fatalf("missing %q span; got %v", want, phases)
		}
	}
}

// nthFromEnd builds the NFA "an a n symbols from the end" over {a, b} as
// a process: state 0 loops on both symbols and guesses the a, states 1..n
// count the symbols after it. Its subset construction reaches 2^n
// subsets. restricted accepts every state, else only state n; reversed
// numbers state i as n-i; loop adds a state d with 0 -a-> d -a-> 0, which
// leaves the language alone but makes the process not ≈ to the plain one.
func nthFromEnd(n int, restricted, reversed, loop bool) *fsp.FSP {
	b := fsp.NewBuilder("nth-from-end")
	b.AddStates(n + 1)
	id := func(i int) fsp.State {
		if reversed {
			return fsp.State(n - i)
		}
		return fsp.State(i)
	}
	b.SetStart(id(0))
	b.ArcName(id(0), "a", id(0))
	b.ArcName(id(0), "b", id(0))
	b.ArcName(id(0), "a", id(1))
	for i := 1; i < n; i++ {
		b.ArcName(id(i), "a", id(i+1))
		b.ArcName(id(i), "b", id(i+1))
	}
	for i := 0; i <= n; i++ {
		if restricted || i == n {
			b.Accept(id(i))
		}
	}
	if loop {
		d := b.AddStates(1)
		b.ArcName(id(0), "a", d)
		b.ArcName(d, "a", id(0))
		if restricted {
			b.Accept(d)
		}
	}
	return b.MustBuild()
}

// TestSubsetWalkStopsAtDeadline: a failure or trace query whose subset
// walk would run for seconds (2^20 subset pairs) returns the context's
// error within 250 ms of a 20 ms deadline, so a timed-out query stops
// burning CPU instead of running on in an abandoned goroutine.
func TestSubsetWalkStopsAtDeadline(t *testing.T) {
	const n = 20
	for _, c := range []struct {
		rel  Relation
		p, q *fsp.FSP
	}{
		{Failure, nthFromEnd(n, true, false, false), nthFromEnd(n, true, true, false)},
		{Trace, nthFromEnd(n, false, false, false), nthFromEnd(n, false, true, true)},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		start := time.Now()
		_, err := New().Check(ctx, Query{P: c.p, Q: c.q, Rel: c.rel})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: Check returned %v, want %v", c.rel, err, context.DeadlineExceeded)
		}
		if elapsed > 270*time.Millisecond {
			t.Errorf("%s: Check returned after %v, want within 250 ms of the 20 ms deadline", c.rel, elapsed)
		}
	}
}
