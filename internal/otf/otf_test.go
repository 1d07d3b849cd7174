package otf

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"ccs/internal/compose"
	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/hashcons"
)

var bg = context.Background()

// checkBoth runs the game single- and multi-worker and requires both
// verdicts to agree with each other and with flatVerdict, a decider that
// shares no game code; the single-worker result is returned. Every test
// that goes through it is therefore also an otf-vs-flat differential.
func checkBoth(t *testing.T, net *compose.Network, spec *fsp.FSP, rel Rel) *Result {
	t.Helper()
	seq, err := Check(bg, net, spec, rel, Options{Workers: 1})
	if err != nil {
		t.Fatalf("Check(workers=1): %v", err)
	}
	par, err := Check(bg, net, spec, rel, Options{Workers: 4})
	if err != nil {
		t.Fatalf("Check(workers=4): %v", err)
	}
	if seq.Equivalent != par.Equivalent {
		t.Fatalf("worker counts disagree: 1 worker = %v, 4 workers = %v", seq.Equivalent, par.Equivalent)
	}
	if flat := flatVerdict(t, net, spec, rel); flat != seq.Equivalent {
		t.Fatalf("%s %s: otf = %v, flat decider = %v (counterexample: %v)", net, rel, seq.Equivalent, flat, seq.Counterexample)
	}
	return seq
}

// flatVerdict decides net rel spec on the materialized product with the
// saturate-and-partition deciders of internal/core. Each component is
// first replaced by its quotient modulo a congruence for rel (~ for the
// strong game, ≈ᶜ otherwise), as minimize-then-compose does, so the
// early-exit tests' large products stay cheap to decide.
func flatVerdict(t *testing.T, net *compose.Network, spec *fsp.FSP, rel Rel) bool {
	t.Helper()
	quotient, decide := core.QuotientCongruence, core.WeakEquivalent
	switch rel {
	case Strong:
		quotient, decide = core.QuotientStrong, core.StrongEquivalent
	case Congruence:
		decide = core.ObservationCongruent
	}
	min := &compose.Network{Name: net.Name, Hidden: net.Hidden, Sync: net.Sync}
	for _, c := range net.Components {
		q, _, err := quotient(c.P)
		if err != nil {
			t.Fatal(err)
		}
		min.Add(q, c.Relabel)
	}
	flat, err := min.FSP()
	if err != nil {
		t.Fatal(err)
	}
	eq, err := decide(flat, spec)
	if err != nil {
		t.Fatal(err)
	}
	return eq
}

// TestRelayAgainstCounter: the buffer-law gallery decided on the fly, on
// the raw (unminimized) networks — the game does not need minimized
// components to be correct, only to be fast.
func TestRelayAgainstCounter(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		res := checkBoth(t, gen.RelayNetwork(n, 2), gen.CounterSpec(n), Weak)
		if !res.Equivalent {
			t.Errorf("relay-%d: on-the-fly says ≉, want ≈ (counterexample: %v)", n, res.Counterexample)
		}
	}
	res := checkBoth(t, gen.LossyRelayNetwork(3, 2), gen.CounterSpec(3), Weak)
	if res.Equivalent {
		t.Error("lossy relay accepted")
	}
	if res.Counterexample == nil || res.Counterexample.Reason == "" {
		t.Error("inequivalent verdict without a counterexample")
	}
}

// TestTokenRing: the ring ≈ the work loop; the buggy ring is rejected
// with a counterexample whose trace reaches the dropping station.
func TestTokenRing(t *testing.T) {
	if res := checkBoth(t, gen.TokenRing(4), gen.TokenRingSpec(), Weak); !res.Equivalent {
		t.Errorf("token-ring-4 rejected: %v", res.Counterexample)
	}
	res := checkBoth(t, gen.BuggyTokenRing(4), gen.TokenRingSpec(), Weak)
	if res.Equivalent {
		t.Error("buggy token ring accepted")
	}
	if res.Counterexample == nil {
		t.Fatal("no counterexample")
	}
	if len(res.Counterexample.Trace) == 0 {
		t.Error("counterexample trace is empty; the drop needs at least one work+pass")
	}
}

// TestDifferentialRandomWeak cross-validates the weak game against the
// flat saturate-and-partition decider on the random network suite, with
// specs drawn both from quotients of the products (positives, when they
// happen to be deterministic) and from unrelated deterministic processes
// (mostly negatives).
func TestDifferentialRandomWeak(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ran := 0
	for i := 0; i < 60; i++ {
		net := gen.RandomNetwork(rng)
		flat, err := net.FSP()
		if err != nil {
			t.Fatal(err)
		}
		var specs []*fsp.FSP
		if min, _, err := core.QuotientWeak(flat); err == nil {
			specs = append(specs, min)
		}
		specs = append(specs, gen.RandomDeterministic(rng, 1+rng.Intn(4), 2))
		for _, spec := range specs {
			if Eligible(spec, Weak) != nil {
				continue
			}
			ran++
			want, err := core.WeakEquivalent(flat, spec)
			if err != nil {
				t.Fatal(err)
			}
			res := checkBoth(t, net, spec, Weak)
			if res.Equivalent != want {
				t.Fatalf("net %d (%s) vs %s: otf=%v flat=%v\ncounterexample: %v",
					i, net, spec, res.Equivalent, want, res.Counterexample)
			}
		}
	}
	if ran < 30 {
		t.Fatalf("only %d eligible differential cases ran; suite too thin", ran)
	}
}

// TestDifferentialRandomStrongAndCongruence: same harness for the strong
// and congruence games.
func TestDifferentialRandomStrongAndCongruence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ranStrong, ranCong := 0, 0
	for i := 0; i < 60; i++ {
		net := gen.RandomNetwork(rng)
		flat, err := net.FSP()
		if err != nil {
			t.Fatal(err)
		}
		strongSpecs := []*fsp.FSP{gen.RandomDeterministic(rng, 1+rng.Intn(4), 2)}
		if min, _, err := core.QuotientStrong(flat); err == nil {
			strongSpecs = append(strongSpecs, min)
		}
		for _, spec := range strongSpecs {
			if Eligible(spec, Strong) == nil {
				ranStrong++
				want, err := core.StrongEquivalent(flat, spec)
				if err != nil {
					t.Fatal(err)
				}
				if res := checkBoth(t, net, spec, Strong); res.Equivalent != want {
					t.Fatalf("net %d strong vs %s: otf=%v flat=%v", i, spec, res.Equivalent, want)
				}
			}
			if Eligible(spec, Congruence) == nil {
				ranCong++
				want, err := core.ObservationCongruent(flat, spec)
				if err != nil {
					t.Fatal(err)
				}
				if res := checkBoth(t, net, spec, Congruence); res.Equivalent != want {
					t.Fatalf("net %d congruence vs %s: otf=%v flat=%v", i, spec, res.Equivalent, want)
				}
			}
		}
	}
	if ranStrong < 20 || ranCong < 20 {
		t.Fatalf("differential coverage too thin: strong=%d congruence=%d", ranStrong, ranCong)
	}
}

// TestCongruenceRootCondition: tau·work ≈ work but not ≈ᶜ — the root
// condition must separate the games.
func TestCongruenceRootCondition(t *testing.T) {
	b := fsp.NewBuilder("tau-work")
	b.AddStates(2)
	b.ArcName(0, fsp.TauName, 1)
	b.ArcName(1, "work", 1)
	b.Accept(0)
	b.Accept(1)
	net := compose.New("tau-first", b.MustBuild())
	spec := gen.TokenRingSpec() // the plain work loop
	if res := checkBoth(t, net, spec, Weak); !res.Equivalent {
		t.Errorf("tau·work ≉ work-loop: %v", res.Counterexample)
	}
	if res := checkBoth(t, net, spec, Congruence); res.Equivalent {
		t.Error("tau·work ≈ᶜ work-loop accepted; the root condition was lost")
	}
}

// TestExtensionMismatch: a pair with differing extensions must fail even
// when the transition structure matches.
func TestExtensionMismatch(t *testing.T) {
	b := fsp.NewBuilder("half-accepting")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	b.ArcName(1, "a", 0)
	b.Accept(0) // state 1 does not accept
	p := b.MustBuild()

	b2 := fsp.NewBuilder("all-accepting")
	b2.AddStates(2)
	b2.ArcName(0, "a", 1)
	b2.ArcName(1, "a", 0)
	b2.Accept(0)
	b2.Accept(1)
	spec := b2.MustBuild()

	res := checkBoth(t, compose.New("halves", p), spec, Weak)
	if res.Equivalent {
		t.Error("extension mismatch accepted")
	}
}

// TestEligible enumerates the spec shapes the game refuses.
func TestEligible(t *testing.T) {
	tau := fsp.NewBuilder("has-tau")
	tau.AddStates(2)
	tau.ArcName(0, fsp.TauName, 1)
	tauSpec := tau.MustBuild()
	if err := Eligible(tauSpec, Weak); err == nil {
		t.Error("tau spec eligible for the weak game")
	}
	if err := Eligible(tauSpec, Strong); err != nil {
		t.Errorf("deterministic tau spec rejected by the strong game: %v", err)
	}

	nd := fsp.NewBuilder("nondet")
	nd.AddStates(3)
	nd.ArcName(0, "a", 1)
	nd.ArcName(0, "a", 2)
	if err := Eligible(nd.MustBuild(), Weak); err == nil {
		t.Error("nondeterministic spec eligible")
	}

	eps := fsp.NewBuilder("eps")
	eps.AddStates(2)
	eps.ArcName(0, fsp.EpsilonName, 1)
	if err := Eligible(eps.MustBuild(), Weak); err == nil {
		t.Error("epsilon spec eligible")
	}

	if err := Eligible(nil, Weak); err == nil {
		t.Error("nil spec eligible")
	}
}

// TestEarlyExitVisitsFewPairs: on the buggy token ring the game must stop
// long before exhausting even the raw product, and the spec-side action
// the ring cannot deliver must be named in the counterexample.
func TestEarlyExitVisitsFewPairs(t *testing.T) {
	const n = 6
	net := gen.BuggyTokenRing(n)
	idx, _, err := net.Index()
	if err != nil {
		t.Fatal(err)
	}
	res := checkBoth(t, net, gen.TokenRingSpec(), Weak)
	if res.Equivalent {
		t.Fatal("buggy ring accepted")
	}
	if res.Pairs >= idx.N() {
		t.Errorf("game interned %d pairs, flat product has only %d states — no early exit", res.Pairs, idx.N())
	}
}

// TestCancellation: a cancelled context aborts the exploration.
func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(bg)
	cancel()
	if _, err := Check(ctx, gen.TokenRing(4), gen.TokenRingSpec(), Weak, Options{Workers: 1}); err == nil {
		t.Error("cancelled context produced no error")
	}
}

// pollCtx reports cancellation only from its n-th Err poll onward. The
// entry check in explore consumes the first poll, so with after=1 the
// cancellation is observed strictly mid-exploration — deterministically
// exercising the in-loop poll sites (the per-pollEvery check on busy
// workers, the idle loop of thieves) rather than the entry short-circuit.
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

// TestCancellationMidRun: a context that goes bad while the game is in
// flight stops the game at any worker count with ctx's error, not a
// verdict.
func TestCancellationMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx := &pollCtx{Context: bg, after: 1}
		res, err := Check(ctx, gen.TokenRing(6), gen.TokenRingSpec(), Weak, Options{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%d workers: err=%v (res=%v), want context.Canceled", workers, err, res)
		}
	}
}

// TestSchedulerDifferentialGallery: one worker and eight decide every
// gallery exhibit identically — including the determinized-spec routes —
// with a counterexample on every negative, and on full sweeps (the
// positives, where no early exit can cut the search) they intern the
// exact same number of pairs: the reachable pair set is independent of
// how the work is spread.
func TestSchedulerDifferentialGallery(t *testing.T) {
	for _, e := range gen.NetworkGallery() {
		seq, err := Check(bg, e.Net, e.Spec, Weak, Options{Workers: 1})
		if err != nil {
			t.Fatalf("%s 1 worker: %v", e.Name, err)
		}
		par, err := Check(bg, e.Net, e.Spec, Weak, Options{Workers: 8})
		if err != nil {
			t.Fatalf("%s 8 workers: %v", e.Name, err)
		}
		if seq.Equivalent != e.Weak || par.Equivalent != e.Weak {
			t.Errorf("%s: 1 worker=%v 8 workers=%v, want %v",
				e.Name, seq.Equivalent, par.Equivalent, e.Weak)
		}
		if seq.Determinized != par.Determinized {
			t.Errorf("%s: determinization disagrees: 1 worker=%v 8 workers=%v",
				e.Name, seq.Determinized, par.Determinized)
		}
		for _, r := range []*Result{seq, par} {
			if r.Explored > r.Pairs || r.Explored <= 0 {
				t.Errorf("%s: explored %d of %d interned pairs", e.Name, r.Explored, r.Pairs)
			}
			if r.Utilization <= 0 || r.Utilization > 1 {
				t.Errorf("%s: utilization %v outside (0,1]", e.Name, r.Utilization)
			}
			if !e.Weak && (r.Counterexample == nil || r.Counterexample.Reason == "") {
				t.Errorf("%s: inequivalent verdict without a counterexample", e.Name)
			}
		}
		if seq.Workers != 1 || par.Workers != 8 {
			t.Errorf("%s: results report %d and %d workers, want 1 and 8", e.Name, seq.Workers, par.Workers)
		}
		if e.Weak && seq.Pairs != par.Pairs {
			t.Errorf("%s: full sweeps intern different pair counts: 1 worker=%d 8 workers=%d",
				e.Name, seq.Pairs, par.Pairs)
		}
	}
}

// TestUncoveredRelation: the package rejects relations outside the game.
func TestUncoveredRelation(t *testing.T) {
	if _, err := Check(bg, gen.TokenRing(2), gen.TokenRingSpec(), Rel(99), Options{}); err == nil {
		t.Error("unknown relation accepted")
	}
}

// TestWalkObservesDeadline: on the starved quorum swarm, unminimized, the
// game spends its whole run in one exhaustive closure walk from the root
// pair (over a second of work). A deadline must interrupt that walk: the
// game returns the context's error, not a verdict, long before the walk
// would have ended.
func TestWalkObservesDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(bg, 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := Check(ctx, gen.ByzantineQuorumSwarm(12, 4, 4, 6), gen.DecideSpec(), Weak, Options{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v (res=%+v), want context.DeadlineExceeded", err, res)
	}
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Errorf("a 5ms deadline took %v to stop the walk", el)
	}
}

// TestWalkStopsOnSiblingMismatch: a walk polls the game's mismatch flag
// too, so a worker deep in an exhaustive walk stops at its first poll once
// a sibling has published a failure, and process reports neither children
// nor a failure of its own: the interrupted walk's leftover obligations
// are not a verdict.
func TestWalkStopsOnSiblingMismatch(t *testing.T) {
	e, err := gen.ByzantineQuorumSwarm(12, 4, 4, 6).Expand()
	if err != nil {
		t.Fatal(err)
	}
	s, err := newSession(e, gen.DecideSpec(), Weak, false)
	if err != nil {
		t.Fatal(err)
	}
	key := append(append([]int32(nil), e.Starts...), s.spec.start())
	id, vec, _ := s.intern(key, -1, -1)
	s.rootID = id
	s.fail.Store(&failure{at: id, reason: "a sibling's mismatch"})
	w := s.newWorker(0)
	children, f := w.process(bg, pairRec{id: id, q: s.spec.start(), vec: vec})
	if children != nil || f != nil {
		t.Fatalf("interrupted pair yielded children %v, failure %+v", children, f)
	}
	if w.walked != pollEvery {
		t.Errorf("walk expanded %d closure states, want to stop at the first poll (%d)", w.walked, pollEvery)
	}
}

// refWalk is the closure walk as the game ran it before walks were
// memoized, kept as the oracle for walkMissing: a map-based BFS over the
// product's tau successors from vec that clears from missing the direct
// observables of each closure member and stops as soon as missing is
// empty. It returns the number of closure states it expanded.
func refWalk(e *compose.Expansion, vec []int32, missing []uint64) (expanded int) {
	k := e.K()
	pack := func(v []int32) string {
		b := make([]byte, 4*len(v))
		for i, x := range v {
			b[4*i], b[4*i+1], b[4*i+2], b[4*i+3] = byte(x), byte(x>>8), byte(x>>16), byte(x>>24)
		}
		return string(b)
	}
	seen := map[string]struct{}{pack(vec): {}}
	queue := append([]int32(nil), vec...)
	var batch compose.SuccBatch
	for i := 0; i*k < len(queue); i++ {
		expanded++
		batch.Reset()
		e.AppendSucc(queue[i*k:(i+1)*k], &batch)
		for j := 0; j < batch.Len(); j++ {
			label, next := batch.Labels[j], batch.Vec(j)
			if label == 0 {
				if _, ok := seen[pack(next)]; !ok {
					seen[pack(next)] = struct{}{}
					queue = append(queue, next...)
				}
			} else if hasBit(missing, label) {
				clearBit(missing, label)
				if zeroWords(missing) {
					return expanded
				}
			}
		}
	}
	return expanded
}

// TestMemoWalkMatchesReference drives one worker's memoized walk over
// random reachable states of many networks, in random order and with
// random obligation sets, so later walks run on the memo earlier ones
// left. Every walk must leave exactly the obligations outside the state's
// weakly enabled set W(v) — the exhaustive reference walk computes W(v) —
// and must expand no more closure states than the reference walk does for
// the same obligations.
func TestMemoWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	var nets []*compose.Network
	for i := 0; i < 40; i++ {
		nets = append(nets, gen.RandomNetwork(rng))
	}
	nets = append(nets, gen.RelayNetwork(5, 2), gen.LossyRelayNetwork(5, 2),
		gen.TokenRing(4), gen.BuggyTokenRing(4))
	for _, g := range gen.ProtocolGallery() {
		nets = append(nets, g.Net)
	}
	idle := fsp.NewBuilder("idle")
	idle.AddStates(1)
	spec := idle.MustBuild()

	checks := 0
	for _, net := range nets {
		e, err := net.Expand()
		if err != nil {
			t.Fatal(err)
		}
		s, err := newSession(e, spec, Weak, false)
		if err != nil {
			t.Fatal(err)
		}
		w := s.newWorker(0)

		// Up to 80 states, drawn from a BFS prefix of the reachable product.
		reach := hashcons.New[int32](s.k, 0)
		reach.Intern(e.Starts)
		var b compose.SuccBatch
		for i := 0; i < reach.Len() && reach.Len() < 200; i++ {
			b.Reset()
			e.AppendSucc(reach.Key(int32(i)), &b)
			for j := 0; j < b.Len(); j++ {
				reach.Intern(b.Vec(j))
			}
		}

		all := make([]uint64, s.words)
		for l := 1; l < s.numLabels; l++ {
			setBit(all, int32(l))
		}
		outside := make([]uint64, s.words)
		for n, i := range rng.Perm(reach.Len()) {
			if n == 80 {
				break
			}
			v := reach.Key(int32(i))
			clearWords(w.direct)
			b.Reset()
			e.AppendSucc(v, &b)
			for j := 0; j < b.Len(); j++ {
				if l := b.Labels[j]; l != 0 {
					setBit(w.direct, l)
				}
			}
			// The exhaustive walk leaves exactly the labels outside W(v).
			copy(outside, all)
			refWalk(e, v, outside)
			for q := 0; q < 5; q++ {
				for l := 1; l < s.numLabels; l++ {
					if rng.Intn(3) == 0 {
						setBit(w.missing, int32(l))
					} else {
						clearBit(w.missing, int32(l))
					}
				}
				andNotWords(w.missing, w.direct)
				if zeroWords(w.missing) {
					continue
				}
				want := append([]uint64(nil), w.missing...)
				for x := range want {
					want[x] &= outside[x]
				}
				ref := append([]uint64(nil), w.missing...)
				refExpanded := refWalk(e, v, ref)
				before := w.walked
				if !w.walkMissing(bg, v) {
					t.Fatalf("%s at %v: walk interrupted without a cancellation", net, v)
				}
				checks++
				if !equalWords(w.missing, want) || !equalWords(ref, want) {
					t.Fatalf("%s at %v: memo walk left %x, reference %x, want obligations - W(v) = %x",
						net, v, w.missing, ref, want)
				}
				if got := w.walked - before; got > refExpanded {
					t.Fatalf("%s at %v: memo walk expanded %d closure states, reference %d",
						net, v, got, refExpanded)
				}
			}
		}
	}
	if checks < 5000 {
		t.Fatalf("only %d walks checked; suite too thin", checks)
	}
	t.Logf("%d memoized walks checked against the reference", checks)
}
