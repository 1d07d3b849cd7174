package ccs_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ccs"
)

const (
	inlineTauA = "fsp TauA\nalphabet a\nstates 3\narc 0 tau 1\narc 1 a 2\n"
	inlineA    = "fsp A\nalphabet a\nstates 2\narc 0 a 1\n"
)

func TestDoPairBasics(t *testing.T) {
	c := ccs.NewChecker()
	ctx := context.Background()

	rep := c.Do(ctx, ccs.NewCheck("weak", "expr:a+a", "expr:a"), nil)
	if rep.Error != nil {
		t.Fatalf("weak a+a vs a: %v", rep.Error)
	}
	if !rep.Equivalent || rep.Route != ccs.RouteDirect || rep.Relation != "weak" {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if rep.ElapsedMS < 0 {
		t.Fatalf("negative elapsed: %+v", rep)
	}

	// Two inline interchange texts: tau.a ≈ a but not ≈ᶜ.
	rep = c.Do(ctx, ccs.NewCheck("weak", inlineTauA, inlineA), nil)
	if rep.Error != nil || !rep.Equivalent {
		t.Fatalf("tau.a ≈ a: %+v", rep)
	}
	rep = c.Do(ctx, ccs.NewCheck("congruence", inlineTauA, inlineA), nil)
	if rep.Error != nil || rep.Equivalent {
		t.Fatalf("tau.a ≈ᶜ a should fail: %+v", rep)
	}
}

func TestDoRelationNames(t *testing.T) {
	c := ccs.NewChecker()
	ctx := context.Background()
	for _, rel := range []string{"strong", "weak", "trace", "congruence", "simulation", "k2", "limited3"} {
		rep := c.Do(ctx, ccs.NewCheck(rel, "expr:ab", "expr:ab"), nil)
		if rep.Error != nil || !rep.Equivalent {
			t.Fatalf("%s reflexive check: %+v", rel, rep)
		}
	}
	rep := c.Do(ctx, ccs.NewCheck("frobnicate", "expr:a", "expr:a"), nil)
	if rep.Error == nil || rep.Error.Kind != ccs.ErrorKindInput {
		t.Fatalf("unknown relation: %+v", rep)
	}
}

func TestDoInputErrors(t *testing.T) {
	c := ccs.NewChecker()
	ctx := context.Background()
	for name, req := range map[string]ccs.CheckRequest{
		"missing q":           {Relation: "weak", P: "expr:a"},
		"missing relation":    {P: "expr:a", Q: "expr:a"},
		"bad expression":      ccs.NewCheck("weak", "expr:((", "expr:a"),
		"bad inline text":     ccs.NewCheck("weak", "states nope\n", "expr:a"),
		"file ref, no loader": ccs.NewCheck("weak", "/no/such/file", "expr:a"),
		"bad route":           ccs.NewCheck("weak", "expr:a", "expr:a", ccs.WithRoute("mtc")),
		"mixed pair+network": {Relation: "weak", P: "expr:a", Q: "expr:a",
			Network: &ccs.NetworkRequest{Components: []ccs.NetworkComponentRef{{Process: "expr:a"}}}},
	} {
		rep := c.Do(ctx, req, nil)
		if rep.Error == nil || rep.Error.Kind != ccs.ErrorKindInput {
			t.Fatalf("%s: want input error, got %+v", name, rep)
		}
	}
}

func TestDoExplain(t *testing.T) {
	c := ccs.NewChecker()
	ctx := context.Background()
	rep := c.Do(ctx, ccs.NewCheck("strong", "expr:a+b", "expr:a", ccs.WithExplain()), nil)
	if rep.Error != nil || rep.Equivalent {
		t.Fatalf("a+b ~ a should be inequivalent: %+v", rep)
	}
	if rep.Counterexample == "" {
		t.Fatalf("explain produced no witness: %+v", rep)
	}
	rep = c.Do(ctx, ccs.NewCheck("trace", "expr:ab", "expr:ac", ccs.WithExplain()), nil)
	if rep.Error != nil || rep.Equivalent || rep.Counterexample == "" {
		t.Fatalf("trace witness: %+v", rep)
	}
}

func TestDoNetwork(t *testing.T) {
	cell := "fsp cell\nalphabet in mid' \nstates 2\narc 0 in 1\narc 1 mid' 0\n"
	cell2 := "fsp cell2\nalphabet mid out'\nstates 2\narc 0 mid 1\narc 1 out' 0\n"
	spec := "fsp spec\nalphabet in out'\nstates 2\narc 0 in 1\narc 1 out' 0\n"
	net := ccs.NetworkRequest{
		Name: "chain",
		Components: []ccs.NetworkComponentRef{
			{Process: cell},
			{Process: cell2},
		},
		Hide: []string{"mid"},
		Spec: spec,
	}
	c := ccs.NewChecker()
	ctx := context.Background()

	for _, route := range []string{"", ccs.RouteAuto, "otf", ccs.RouteMTC} {
		req := ccs.NewNetworkCheck("weak", net)
		if route != "" {
			req = ccs.NewNetworkCheck("weak", net, ccs.WithRoute(route))
		}
		rep := c.Do(ctx, req, nil)
		if rep.Error != nil {
			t.Fatalf("route %q: %v", route, rep.Error)
		}
		if rep.Equivalent {
			// Two-cell buffer vs one-slot spec: the chain can hold two
			// items, the spec cannot — inequivalent under ≈.
			t.Fatalf("route %q: chain ≈ one-slot spec unexpectedly: %+v", route, rep)
		}
		if rep.Route == "" {
			t.Fatalf("route %q: no route reported: %+v", route, rep)
		}
		if rep.Relation != "weak" {
			t.Fatalf("route %q: relation %q", route, rep.Relation)
		}
	}

	// Default relation for networks is weak.
	rep := c.Do(ctx, ccs.CheckRequest{Network: &net}, nil)
	if rep.Error != nil || rep.Relation != "weak" {
		t.Fatalf("default network relation: %+v", rep)
	}

	// Spec-less network request is an input error through Do.
	noSpec := net
	noSpec.Spec = ""
	rep = c.Do(ctx, ccs.NewNetworkCheck("weak", noSpec), nil)
	if rep.Error == nil || rep.Error.Kind != ccs.ErrorKindInput {
		t.Fatalf("spec-less network: %+v", rep)
	}
}

func TestDoNetworkAgreesAcrossRoutes(t *testing.T) {
	// An equivalent pair: one cell chain against its own minimized spec.
	cell := "fsp cell\nalphabet in out'\nstates 2\narc 0 in 1\narc 1 out' 0\n"
	net := ccs.NetworkRequest{
		Components: []ccs.NetworkComponentRef{{Process: cell}},
		Spec:       cell,
	}
	c := ccs.NewChecker()
	ctx := context.Background()
	auto := c.Do(ctx, ccs.NewNetworkCheck("weak", net), nil)
	mtc := c.Do(ctx, ccs.NewNetworkCheck("weak", net, ccs.WithRoute(ccs.RouteMTC)), nil)
	if auto.Error != nil || mtc.Error != nil {
		t.Fatalf("errors: %+v / %+v", auto.Error, mtc.Error)
	}
	if auto.Equivalent != mtc.Equivalent || !auto.Equivalent {
		t.Fatalf("routes disagree: auto=%+v mtc=%+v", auto, mtc)
	}
}

func TestDoAllOrderAndSharing(t *testing.T) {
	c := ccs.NewChecker()
	reqs := []ccs.CheckRequest{
		ccs.NewCheck("weak", "expr:a+a", "expr:a", ccs.WithLabel("first")),
		ccs.NewCheck("strong", "expr:a(b+c)", "expr:ab+ac", ccs.WithLabel("second")),
		ccs.NewCheck("bogus", "expr:a", "expr:a", ccs.WithLabel("third")),
	}
	reps := c.DoAll(context.Background(), reqs, 2, nil)
	if len(reps) != 3 {
		t.Fatalf("want 3 reports, got %d", len(reps))
	}
	if reps[0].Label != "first" || !reps[0].Equivalent || reps[0].Error != nil {
		t.Fatalf("report 0: %+v", reps[0])
	}
	if reps[1].Label != "second" || reps[1].Equivalent || reps[1].Error != nil {
		t.Fatalf("report 1: %+v", reps[1])
	}
	if reps[2].Label != "third" || reps[2].Error == nil || reps[2].Error.Kind != ccs.ErrorKindInput {
		t.Fatalf("report 2: %+v", reps[2])
	}
}

func TestDoAllTimeoutAndCancel(t *testing.T) {
	c := ccs.NewChecker()
	// An already-expired context: every request must report a timeout, and
	// the report slice must still be complete and ordered.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	reqs := []ccs.CheckRequest{
		ccs.NewCheck("weak", "expr:a", "expr:a", ccs.WithLabel("t0")),
		ccs.NewCheck("weak", "expr:b", "expr:b", ccs.WithLabel("t1")),
	}
	for i, rep := range c.DoAll(ctx, reqs, 1, nil) {
		if rep.Error == nil || rep.Error.Kind != ccs.ErrorKindTimeout {
			t.Fatalf("report %d: want timeout, got %+v", i, rep)
		}
	}

	// A canceled context reports the canceled kind.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	rep := c.Do(ctx2, ccs.NewCheck("weak", "expr:a", "expr:a"), nil)
	if rep.Error == nil || rep.Error.Kind != ccs.ErrorKindCanceled {
		t.Fatalf("canceled: %+v", rep)
	}

	// A per-request timeout via the option: expired before the check
	// starts, since the deadline is in the past relative to work done.
	req := ccs.NewCheck("weak", "expr:a", "expr:a", ccs.WithTimeout(time.Nanosecond))
	if req.TimeoutMS != 1 {
		t.Fatalf("sub-millisecond timeout must round up: %+v", req)
	}
}

func TestDoLoaderMemoization(t *testing.T) {
	calls := map[string]int{}
	loader := func(ref string) (*ccs.Process, error) {
		calls[ref]++
		return ccs.FromExpression("a")
	}
	c := ccs.NewChecker()
	reqs := []ccs.CheckRequest{
		ccs.NewCheck("weak", "P", "Q"),
		ccs.NewCheck("strong", "P", "Q"),
		ccs.NewCheck("trace", "Q", "P"),
	}
	// workers=1 keeps the call counting race-free.
	for _, rep := range c.DoAll(context.Background(), reqs, 1, loader) {
		if rep.Error != nil || !rep.Equivalent {
			t.Fatalf("loader batch: %+v", rep)
		}
	}
	if calls["P"] != 1 || calls["Q"] != 1 {
		t.Fatalf("loader not memoized per batch: %v", calls)
	}
}

func TestStoreCheckerStats(t *testing.T) {
	dir := t.TempDir()
	c, err := ccs.NewStoreChecker(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := c.Do(context.Background(), ccs.NewCheck("weak", "expr:a+a", "expr:a"), nil)
	if rep.Error != nil || !rep.Equivalent {
		t.Fatalf("store-backed check: %+v", rep)
	}
	stats := c.Stats()
	if stats.Store == nil || stats.Store.Writes == 0 {
		t.Fatalf("store-backed checker spilled nothing: %+v", stats)
	}
	if stats.Processes == 0 {
		t.Fatalf("no processes counted: %+v", stats)
	}
	if !strings.Contains(stats.Render(), "store:") {
		t.Fatalf("render misses store section: %q", stats.Render())
	}

	// A second checker on the same directory is warm.
	c2, err := ccs.NewStoreChecker(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep = c2.Do(context.Background(), ccs.NewCheck("weak", "expr:a+a", "expr:a"), nil)
	if rep.Error != nil || !rep.Equivalent {
		t.Fatalf("warm check: %+v", rep)
	}
	stats = c2.Stats()
	if stats.Store == nil || stats.Store.Hits == 0 {
		t.Fatalf("second checker saw no store hits: %+v", stats)
	}

	// Memory-only checkers render without the store section.
	if s := ccs.NewChecker().Stats(); s.Store != nil {
		t.Fatalf("memory-only checker reports a store: %+v", s)
	}
}

// nthFromEndText is the restricted process "an a n symbols from the end"
// over {a, b} in interchange text: state 0 loops on both symbols and
// guesses the a, states 1..n count the symbols after it, so its subset
// construction reaches 2^n subsets. reversed numbers state i as n-i.
func nthFromEndText(n int, reversed bool) string {
	id := func(i int) int {
		if reversed {
			return n - i
		}
		return i
	}
	var b strings.Builder
	fmt.Fprintf(&b, "alphabet a b\nstates %d\nstart %d\n", n+1, id(0))
	fmt.Fprintf(&b, "arc %d a %d\narc %d b %d\narc %d a %d\n", id(0), id(0), id(0), id(0), id(0), id(1))
	for i := 1; i < n; i++ {
		fmt.Fprintf(&b, "arc %d a %d\narc %d b %d\n", id(i), id(i+1), id(i), id(i+1))
	}
	for i := 0; i <= n; i++ {
		fmt.Fprintf(&b, "ext %d x\n", i)
	}
	return b.String()
}

// TestDoTimeoutStopsSubsetWalk: a failure request whose subset walk would
// run for seconds (2^20 subset pairs) times out at its 20 ms deadline, and
// the goroutine that ran it exits soon after instead of deciding the pair.
func TestDoTimeoutStopsSubsetWalk(t *testing.T) {
	c := ccs.NewChecker()
	req := ccs.NewCheck("failure", nthFromEndText(20, false), nthFromEndText(20, true))
	req.TimeoutMS = 20
	base := runtime.NumGoroutine()
	rep := c.Do(context.Background(), req, nil)
	if rep.Error == nil || rep.Error.Kind != ccs.ErrorKindTimeout {
		t.Fatalf("want a timeout, got %+v", rep)
	}
	deadline := time.Now().Add(250 * time.Millisecond)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 250 ms after the timeout, %d before the request", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
