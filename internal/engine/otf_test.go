package engine

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"ccs/internal/compose"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// TestCheckNetworkOTFAgainstCheckNetwork: the on-the-fly route (with its
// internal fallback) must agree with minimize-then-compose on the random
// network suite for every relation, whether or not the spec is eligible
// for the game — and the game must actually run for a healthy share of
// the eligible cases.
func TestCheckNetworkOTFAgainstCheckNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	ctx := context.Background()
	rels := []Relation{Strong, Weak, Trace, Congruence, Simulation, K, Limited}
	onTheFly := 0
	for i := 0; i < 15; i++ {
		net := gen.RandomNetwork(rng)
		specs := []*fsp.FSP{
			gen.Random(rng, 2+rng.Intn(4), 5, 3, 0.3),      // usually ineligible: exercises the fallback
			gen.RandomDeterministic(rng, 2+rng.Intn(4), 2), // eligible: exercises the game
		}
		c := New()
		for _, rel := range rels {
			for _, spec := range specs {
				want, err := c.CheckNetwork(ctx, net, spec, rel, 2)
				if err != nil {
					t.Fatal(err)
				}
				got, info, err := c.CheckNetworkOTFInfo(ctx, net, spec, rel, 2)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Errorf("net %d rel %v: OTF=%v (onTheFly=%v) MTC=%v", i, rel, got, info.OnTheFly, want)
				}
				if info.OnTheFly {
					onTheFly++
					if info.Fallback != "" {
						t.Errorf("net %d rel %v: on-the-fly verdict carries fallback reason %q", i, rel, info.Fallback)
					}
				} else if info.Fallback == "" {
					t.Errorf("net %d rel %v: fallback without a reason", i, rel)
				}
			}
		}
	}
	if onTheFly < 20 {
		t.Fatalf("the game decided only %d queries; the differential suite barely exercises it", onTheFly)
	}
}

// TestCheckNetworkOTFGallery: every gallery exhibit is playable by the
// game itself (no fallback) — the classic entries directly, the
// nondet-spec family through the determinized subset route — and must
// reproduce the expected verdicts.
func TestCheckNetworkOTFGallery(t *testing.T) {
	ctx := context.Background()
	c := New()
	for _, entry := range gen.NetworkGallery() {
		got, info, err := c.CheckNetworkOTFInfo(ctx, entry.Net, entry.Spec, Weak, 0)
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		if !info.OnTheFly {
			t.Errorf("%s: fell back (%s); gallery specs are playable by construction", entry.Name, info.Fallback)
		}
		if info.OnTheFly && info.Route != RouteOTF && info.Route != RouteOTFDeterminized {
			t.Errorf("%s: on-the-fly verdict with route %q", entry.Name, info.Route)
		}
		if strings.HasSuffix(entry.Name, "-nondet-spec") && info.OnTheFly && info.Route != RouteOTFDeterminized {
			t.Errorf("%s: want the determinized route, got %q", entry.Name, info.Route)
		}
		if got != entry.Weak {
			t.Errorf("%s: OTF ≈ = %v, want %v", entry.Name, got, entry.Weak)
		}
		if !entry.Weak && info.OnTheFly && info.CounterexampleReason == "" {
			t.Errorf("%s: inequivalent without a counterexample reason", entry.Name)
		}
		if !entry.Weak && len(info.Counterexample) == 0 && info.OnTheFly {
			// The buggy exhibits need at least one action before the
			// mismatch; an empty trace means the game blamed the root.
			if !strings.HasPrefix(entry.Name, "lossy-relay-3") {
				t.Errorf("%s: inequivalent without a trace", entry.Name)
			}
		}
	}
}

// TestCheckNetworkOTFEarlyExit is the tentpole acceptance property: the
// buggy token ring is decided while visiting under 10%% of the flat
// product's states. The flat product is exponential in the ring size (the
// idle stations churn independently); the game, running on the cached
// component quotients, prunes the churn and stops at the first drop.
func TestCheckNetworkOTFEarlyExit(t *testing.T) {
	const n = 8
	net := gen.BuggyTokenRing(n)
	idx, _, err := net.Index()
	if err != nil {
		t.Fatal(err)
	}
	flatStates := idx.N()

	c := New()
	eq, info, err := c.CheckNetworkOTFInfo(context.Background(), net, gen.TokenRingSpec(), Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("buggy token ring accepted")
	}
	if !info.OnTheFly {
		t.Fatalf("fell back to minimize-then-compose: %s", info.Fallback)
	}
	if info.Pairs*10 >= flatStates {
		t.Errorf("game visited %d pairs, flat product has %d states: want < 10%%", info.Pairs, flatStates)
	}
	if len(info.Counterexample) == 0 {
		t.Error("no distinguishing trace for the buggy ring")
	}
	t.Logf("flat product %d states; game stopped after %d pairs (%d explored), trace %v",
		flatStates, info.Pairs, info.Explored, info.Counterexample)
}

// TestCheckNetworkOTFRoutes pins the route-reporting contract: a
// deterministic spec goes "otf", a determinate nondeterministic spec
// goes "otf-determinized", essential nondeterminism and uncovered
// relations go "mtc-fallback" with the reason on record — never
// silently.
func TestCheckNetworkOTFRoutes(t *testing.T) {
	ctx := context.Background()
	c := New()
	net := gen.TokenRing(3)

	_, info, err := c.CheckNetworkOTFInfo(ctx, net, gen.TokenRingSpec(), Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Route != RouteOTF || !info.OnTheFly {
		t.Errorf("deterministic spec: route %q onTheFly %v, want %q", info.Route, info.OnTheFly, RouteOTF)
	}

	_, info, err = c.CheckNetworkOTFInfo(ctx, net, gen.NondetTokenRingSpec(), Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Route != RouteOTFDeterminized || !info.OnTheFly {
		t.Errorf("determinate nondet spec: route %q onTheFly %v, want %q", info.Route, info.OnTheFly, RouteOTFDeterminized)
	}
	if info.Fallback != "" {
		t.Errorf("on-the-fly verdict carries fallback reason %q", info.Fallback)
	}

	// Essential nondeterminism: a.b + a.c as the spec of a network that
	// actually performs "a" (a lazy game never builds subsets the
	// product does not exercise). The game refuses, the engine falls
	// back, and the reason is on record.
	essential := fsp.NewBuilder("a.b+a.c")
	essential.AddStates(5)
	essential.ArcName(0, "a", 1)
	essential.ArcName(0, "a", 2)
	essential.ArcName(1, "b", 3)
	essential.ArcName(2, "c", 4)
	for s := 0; s < 5; s++ {
		essential.Accept(fsp.State(s))
	}
	espec := essential.MustBuild()
	branch := fsp.NewBuilder("a.(b+c)")
	branch.AddStates(3)
	branch.ArcName(0, "a", 1)
	branch.ArcName(1, "b", 2)
	branch.ArcName(1, "c", 2)
	for s := 0; s < 3; s++ {
		branch.Accept(fsp.State(s))
	}
	enet := compose.New("trap", branch.MustBuild())
	got, info, err := c.CheckNetworkOTFInfo(ctx, enet, espec, Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Route != RouteMTCFallback || info.OnTheFly {
		t.Errorf("essential nondeterminism: route %q onTheFly %v, want %q", info.Route, info.OnTheFly, RouteMTCFallback)
	}
	if info.Fallback == "" {
		t.Error("fallback without a reason")
	}
	want, err := c.CheckNetwork(ctx, enet, espec, Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("fallback verdict %v disagrees with CheckNetwork %v", got, want)
	}

	_, info, err = c.CheckNetworkOTFInfo(ctx, net, gen.TokenRingSpec(), Trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Route != RouteMTCFallback || info.Fallback == "" {
		t.Errorf("uncovered relation: route %q fallback %q", info.Route, info.Fallback)
	}
}

// TestCheckNetworkOTFDeterminizedEarlyExit: the tentpole acceptance
// property on the nondeterministic observer — a tau-bearing spec PR 4
// rejected outright is decided on the fly, still under 10%% of the flat
// product, with a visible counterexample.
func TestCheckNetworkOTFDeterminizedEarlyExit(t *testing.T) {
	const n = 8
	net := gen.BuggyTokenRing(n)
	idx, _, err := net.Index()
	if err != nil {
		t.Fatal(err)
	}
	flatStates := idx.N()

	c := New()
	eq, info, err := c.CheckNetworkOTFInfo(context.Background(), net, gen.NondetTokenRingSpec(), Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if eq {
		t.Fatal("buggy token ring accepted")
	}
	if info.Route != RouteOTFDeterminized {
		t.Fatalf("route %q (fallback: %s), want %q", info.Route, info.Fallback, RouteOTFDeterminized)
	}
	if info.Pairs*10 >= flatStates {
		t.Errorf("game visited %d pairs, flat product has %d states: want < 10%%", info.Pairs, flatStates)
	}
	if info.CounterexampleReason == "" || info.CounterexampleString() == "" {
		t.Error("no distinguishing counterexample for the buggy ring")
	}
	t.Logf("flat product %d states; determinized game stopped after %d pairs (%d explored, %d subsets): %s",
		flatStates, info.Pairs, info.Explored, info.SpecSubsets, info.CounterexampleString())
}

// TestCheckNetworkOTFConcurrent hammers one Checker with parallel OTF
// queries over shared components, for the race detector: the artifact
// cache and the game's sharded tables must tolerate concurrent use.
func TestCheckNetworkOTFConcurrent(t *testing.T) {
	c := New()
	ctx := context.Background()
	entries := gen.NetworkGallery()
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(entries))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, entry := range entries {
				got, err := c.CheckNetworkOTF(ctx, entry.Net, entry.Spec, Weak, 0)
				if err != nil {
					errs <- err
					continue
				}
				if got != entry.Weak {
					t.Errorf("%s: concurrent OTF = %v, want %v", entry.Name, got, entry.Weak)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCheckNetworkOTFErrors mirrors TestCheckNetworkErrors for the OTF
// entry point: malformed inputs error, never panic.
func TestCheckNetworkOTFErrors(t *testing.T) {
	c := New()
	ctx := context.Background()
	spec := gen.CounterSpec(2)
	if _, err := c.CheckNetworkOTF(ctx, gen.RelayNetwork(2, 1), nil, Weak, 0); err == nil {
		t.Error("nil spec produced no error")
	}
	if _, err := c.CheckNetworkOTF(ctx, gen.RelayNetwork(2, 1), spec, Relation(99), 0); err == nil {
		t.Error("unknown relation produced no error")
	}
	bad := gen.RelayNetwork(2, 1)
	bad.Components = nil
	if _, err := c.CheckNetworkOTF(ctx, bad, spec, Weak, 0); err == nil {
		t.Error("empty network produced no error")
	}
}

// TestCheckNetworkOTFEntriesE18E19 pins E18's and E19's eight entries in
// exact counts: relay-10, lossy-relay-12, token-ring-10 and
// buggy-token-ring-10, each against its deterministic spec (route otf)
// and its nondeterministic tau-bearing spec (route otf-determinized).
// The game agrees with minimize-then-compose and never falls back. MTC's
// product has all its 1,024, 6,144, 20 and 21 states. The game sweeps a
// correct network's whole product, pair by pair, but stops an incorrect
// one within e18MaxMismatchPairs pairs: the structural margin E18 and E19
// once timed.
//
// The game runs one worker here. With more, a thief that runs while the
// worker holding the mismatch is descheduled explores on, so the count
// depends on the host's load: lossy-relay-12 took 19 pairs alone and
// 1,611 beside other packages' tests on a 2-CPU host.
func TestCheckNetworkOTFEntriesE18E19(t *testing.T) {
	const e18MaxMismatchPairs = 32
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		net       *compose.Network
		spec      [2]*fsp.FSP // deterministic, nondeterministic
		want      bool
		mtcStates int
		pairs     int // exact on a full sweep; 0 on an early mismatch
	}{
		{"relay-10", gen.RelayNetwork(10, 3), [2]*fsp.FSP{gen.CounterSpec(10), gen.NondetCounterSpec(10)}, true, 1024, 1024},
		{"lossy-relay-12", gen.LossyRelayNetwork(12, 2), [2]*fsp.FSP{gen.CounterSpec(12), gen.NondetCounterSpec(12)}, false, 6144, 0},
		{"token-ring-10", gen.TokenRing(10), [2]*fsp.FSP{gen.TokenRingSpec(), gen.NondetTokenRingSpec()}, true, 20, 20},
		{"buggy-token-ring-10", gen.BuggyTokenRing(10), [2]*fsp.FSP{gen.TokenRingSpec(), gen.NondetTokenRingSpec()}, false, 21, 0},
	} {
		c := New()
		min, err := c.ComposeNetwork(ctx, tc.net, Weak)
		if err != nil {
			t.Fatal(err)
		}
		if min.NumStates() != tc.mtcStates {
			t.Errorf("%s: minimize-then-compose product has %d states, want %d", tc.name, min.NumStates(), tc.mtcStates)
		}
		for i, route := range []string{RouteOTF, RouteOTFDeterminized} {
			spec := tc.spec[i]
			mtc, err := c.Check(ctx, Query{P: min, Q: spec, Rel: Weak})
			if err != nil {
				t.Fatal(err)
			}
			eq, info, err := New().CheckNetworkOTFInfo(ctx, tc.net, spec, Weak, 0)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s vs %s: %d pairs, %d explored", tc.name, spec.Name(), info.Pairs, info.Explored)
			if eq != tc.want || mtc != tc.want {
				t.Errorf("%s vs %s: otf %v, mtc %v, want %v", tc.name, spec.Name(), eq, mtc, tc.want)
			}
			if info.Route != route {
				t.Errorf("%s vs %s: route %q (fallback %q), want %q", tc.name, spec.Name(), info.Route, info.Fallback, route)
			}
			if tc.pairs != 0 && info.Pairs != tc.pairs {
				t.Errorf("%s vs %s: the game visited %d pairs, want the whole product's %d", tc.name, spec.Name(), info.Pairs, tc.pairs)
			}
			if tc.pairs == 0 && info.Pairs > e18MaxMismatchPairs {
				t.Errorf("%s vs %s: the game visited %d pairs before the mismatch, want <= %d", tc.name, spec.Name(), info.Pairs, e18MaxMismatchPairs)
			}
		}
	}
}
