package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ccs/internal/compose"
	"ccs/internal/core"
	"ccs/internal/failures"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/kequiv"
	"ccs/internal/reductions"
	"ccs/internal/simulation"
)

func buildTauA() *fsp.FSP {
	b := fsp.NewBuilder("tau.a")
	b.AddStates(3)
	b.ArcName(0, fsp.TauName, 1)
	b.ArcName(1, "a", 2)
	return b.MustBuild()
}

func buildA() *fsp.FSP {
	b := fsp.NewBuilder("a")
	b.AddStates(2)
	b.ArcName(0, "a", 1)
	return b.MustBuild()
}

func TestCheckKnownPairs(t *testing.T) {
	tauA, a := buildTauA(), buildA()
	ctx := context.Background()
	c := New()
	cases := []struct {
		rel  Relation
		k    int
		want bool
	}{
		{Strong, 0, false},     // tau.a has a tau move a cannot match
		{Weak, 0, true},        // Milner's tau law
		{Trace, 0, true},       // weak implies trace
		{Congruence, 0, false}, // the classic root-condition separation
		{K, 2, true},
		{Limited, 2, true},
	}
	for _, tc := range cases {
		got, err := c.Check(ctx, Query{P: tauA, Q: a, Rel: tc.rel, K: tc.k})
		if err != nil {
			t.Fatalf("%v: %v", tc.rel, err)
		}
		if got != tc.want {
			t.Errorf("tau.a vs a under %v = %v, want %v", tc.rel, got, tc.want)
		}
	}
}

func TestCheckReflexive(t *testing.T) {
	p := buildTauA()
	c := New()
	for _, rel := range []Relation{Strong, Weak, Trace, Congruence, Simulation, K, Limited} {
		eq, err := c.Check(context.Background(), Query{P: p, Q: p, Rel: rel, K: 3})
		if err != nil {
			t.Fatalf("%v: %v", rel, err)
		}
		if !eq {
			t.Errorf("%v must be reflexive", rel)
		}
	}
}

func TestCheckErrors(t *testing.T) {
	c := New()
	ctx := context.Background()
	if _, err := c.Check(ctx, Query{P: nil, Q: buildA(), Rel: Strong}); err == nil {
		t.Error("nil process must error")
	}
	if _, err := c.Check(ctx, Query{P: buildA(), Q: buildA(), Rel: Relation(99)}); err == nil {
		t.Error("unknown relation must error")
	}
}

// kPartitionOracle decides ≈_k for the roots of p and q through the full
// ≈_k partition of their union, not through the pair-only
// kequiv.Equivalent that the engine's Trace and K paths call.
func kPartitionOracle(p, q *fsp.FSP, k int) (bool, error) {
	u, off, err := fsp.DisjointUnion(p, q)
	if err != nil {
		return false, err
	}
	part, _, err := kequiv.Partition(u, k)
	if err != nil {
		return false, err
	}
	return part.Same(int32(p.Start()), int32(off+q.Start())), nil
}

// TestCheckMatchesDirect cross-checks every cached relation against the
// one-shot implementations on random tau-rich processes.
func TestCheckMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := New()
	ctx := context.Background()
	var procs []*fsp.FSP
	for i := 0; i < 6; i++ {
		procs = append(procs, gen.Random(rng, 12+rng.Intn(12), 40, 2, 0.4))
	}
	for i, p := range procs {
		for j, q := range procs {
			for _, rel := range []Relation{Strong, Weak, Trace, Simulation, Congruence, K, Limited} {
				got, err := c.Check(ctx, Query{P: p, Q: q, Rel: rel, K: 2})
				if err != nil {
					t.Fatalf("engine %v(%d,%d): %v", rel, i, j, err)
				}
				var want bool
				switch rel {
				case Strong:
					want, err = core.StrongEquivalent(p, q)
				case Weak:
					want, err = core.WeakEquivalent(p, q)
				case Trace:
					want, err = kPartitionOracle(p, q, 1)
				case Simulation:
					want, err = simulation.Equivalent(p, q)
				case Congruence:
					want, err = core.ObservationCongruent(p, q)
				case K:
					want, err = kPartitionOracle(p, q, 2)
				case Limited:
					var u *fsp.FSP
					var off fsp.State
					u, off, err = fsp.DisjointUnion(p, q)
					if err == nil {
						want, err = core.LimitedEquivalentStates(u, p.Start(), off+q.Start(), 2)
					}
				}
				if err != nil {
					t.Fatalf("direct %v(%d,%d): %v", rel, i, j, err)
				}
				if got != want {
					t.Errorf("%v(%d,%d): engine=%v direct=%v", rel, i, j, got, want)
				}
			}
		}
	}
}

// rebuild copies p's arcs and extensions into a fresh builder whose
// states are renumbered by perm, lets more add to it, and builds.
func rebuild(p *fsp.FSP, name string, perm []fsp.State, more func(b *fsp.Builder)) *fsp.FSP {
	b := fsp.NewBuilder(name)
	b.AddStates(p.NumStates())
	for s := 0; s < p.NumStates(); s++ {
		for _, a := range p.Arcs(fsp.State(s)) {
			b.ArcName(perm[s], p.Alphabet().Name(a.Act), perm[a.To])
		}
		for _, id := range p.Ext(fsp.State(s)).IDs() {
			b.Extend(perm[s], p.Vars().Name(id))
		}
	}
	b.SetStart(perm[p.Start()])
	if more != nil {
		more(b)
	}
	return b.MustBuild()
}

func identityPerm(n int) []fsp.State {
	perm := make([]fsp.State, n)
	for i := range perm {
		perm[i] = fsp.State(i)
	}
	return perm
}

// permuted renumbers p's states: an isomorphic copy.
func permuted(rng *rand.Rand, p *fsp.FSP) *fsp.FSP {
	perm := make([]fsp.State, p.NumStates())
	for i, v := range rng.Perm(p.NumStates()) {
		perm[i] = fsp.State(v)
	}
	return rebuild(p, p.Name()+"/perm", perm, nil)
}

// twinFluffed adds tau twins that leave p ≈ and ≈ᶜ as it was: some arcs
// s -a-> t gain a twin s -a-> t' -tau-> t, and some states other than the
// start gain a refresh loop s -tau-> r -tau-> s; each new state copies the
// extension of the state it shadows, and the root gains no tau.
func twinFluffed(rng *rand.Rand, p *fsp.FSP) *fsp.FSP {
	return rebuild(p, p.Name()+"/fluff", identityPerm(p.NumStates()), func(b *fsp.Builder) {
		copyExt := func(dst, src fsp.State) {
			for _, id := range p.Ext(src).IDs() {
				b.Extend(dst, p.Vars().Name(id))
			}
		}
		for s := 0; s < p.NumStates(); s++ {
			from := fsp.State(s)
			for _, a := range p.Arcs(from) {
				if a.Act == fsp.Tau || rng.Intn(4) != 0 {
					continue
				}
				twin := b.AddState()
				copyExt(twin, a.To)
				b.ArcName(from, p.Alphabet().Name(a.Act), twin)
				b.ArcName(twin, fsp.TauName, a.To)
			}
			if from != p.Start() && rng.Intn(4) == 0 {
				r := b.AddState()
				copyExt(r, from)
				b.ArcName(from, fsp.TauName, r)
				b.ArcName(r, fsp.TauName, from)
			}
		}
	})
}

// tauPrefixed returns tau.p, whose fresh root copies the extension of p's
// root: ≈ to p, and ≈ᶜ to p only when p's root can itself move silently
// back into its own class.
func tauPrefixed(p *fsp.FSP) *fsp.FSP {
	return rebuild(p, "tau."+p.Name(), identityPerm(p.NumStates()), func(b *fsp.Builder) {
		r := b.AddState()
		for _, id := range p.Ext(p.Start()).IDs() {
			b.Extend(r, p.Vars().Name(id))
		}
		b.ArcName(r, fsp.TauName, p.Start())
		b.SetStart(r)
	})
}

// rootLooped adds a tau self-loop at p's root: ≈ to p, and ≈ᶜ to p
// only when p's root already lies on a tau cycle.
func rootLooped(p *fsp.FSP) *fsp.FSP {
	return rebuild(p, p.Name()+"/loop", identityPerm(p.NumStates()), func(b *fsp.Builder) {
		b.ArcName(p.Start(), fsp.TauName, p.Start())
	})
}

// marked adds a fresh action on a reachable state of p: the copy has a
// trace p lacks.
func marked(rng *rand.Rand, p *fsp.FSP) *fsp.FSP {
	var reach []fsp.State
	for s, ok := range p.Reachable() {
		if ok {
			reach = append(reach, fsp.State(s))
		}
	}
	at := reach[rng.Intn(len(reach))]
	return rebuild(p, p.Name()+"/mark", identityPerm(p.NumStates()), func(b *fsp.Builder) {
		b.ArcName(at, "marker", at)
	})
}

// TestCheckMatchesDirectOnVariants cross-checks the signature-record and
// quotient pair paths (Strong, Weak, Trace, Limited with k = 1..3,
// Congruence) against the one-shot deciders on pairs that are equivalent
// by construction — permuted, tau-twin-fluffed, tau-prefixed and
// root-tau-looped copies of a base — as well as marked copies and
// unrelated bases, so both verdicts occur often.
func TestCheckMatchesDirectOnVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	c := New()
	ctx := context.Background()
	var groups [][]*fsp.FSP
	for i := 0; i < 24; i++ {
		base := gen.Random(rng, 6+rng.Intn(14), 10+rng.Intn(30), 2, 0.3+0.3*rng.Float64())
		groups = append(groups, []*fsp.FSP{
			base, permuted(rng, base), twinFluffed(rng, base), tauPrefixed(base),
			marked(rng, base), twinFluffed(rng, permuted(rng, base)), rootLooped(base),
		})
	}
	checks, equivalent := 0, 0
	for gi, group := range groups {
		other := groups[(gi+1)%len(groups)]
		for i, p := range group {
			for j, q := range append(group[:len(group):len(group)], other[rng.Intn(len(other))]) {
				u, off, err := fsp.DisjointUnion(p, q)
				if err != nil {
					t.Fatal(err)
				}
				for _, qc := range []struct {
					rel Relation
					k   int
				}{{Strong, 0}, {Weak, 0}, {Trace, 0}, {Limited, 1}, {Limited, 2}, {Limited, 3}, {Congruence, 0}} {
					got, err := c.Check(ctx, Query{P: p, Q: q, Rel: qc.rel, K: qc.k})
					if err != nil {
						t.Fatalf("engine %v/%d (%s, %s): %v", qc.rel, qc.k, p.Name(), q.Name(), err)
					}
					var want bool
					switch qc.rel {
					case Strong:
						want, err = core.StrongEquivalent(p, q)
					case Weak:
						want, err = core.WeakEquivalent(p, q)
					case Trace:
						want, err = kPartitionOracle(p, q, 1)
					case Limited:
						want, err = core.LimitedEquivalentStates(u, p.Start(), off+q.Start(), qc.k)
					case Congruence:
						want, err = core.ObservationCongruent(p, q)
					}
					if err != nil {
						t.Fatal(err)
					}
					if got != want {
						t.Errorf("group %d %v/%d(%d,%d) %s vs %s: engine=%v direct=%v", gi, qc.rel, qc.k, i, j, p.Name(), q.Name(), got, want)
					}
					checks++
					if got {
						equivalent++
					}
				}
			}
		}
	}
	t.Logf("%d checks, %d equivalent", checks, equivalent)
	if equivalent < checks/3 || equivalent > checks*9/10 {
		t.Fatalf("%d of %d checks equivalent: the variants no longer mix the verdicts", equivalent, checks)
	}
}

// accepting copies p's arcs and makes every state accepting and nothing
// else: a restricted process, tau arcs included.
func accepting(p *fsp.FSP) *fsp.FSP {
	b := fsp.NewBuilder(p.Name() + "/acc")
	b.AddStates(p.NumStates())
	for s := 0; s < p.NumStates(); s++ {
		for _, a := range p.Arcs(fsp.State(s)) {
			b.ArcName(fsp.State(s), p.Alphabet().Name(a.Act), a.To)
		}
		b.Accept(fsp.State(s))
	}
	b.SetStart(p.Start())
	return b.MustBuild()
}

// failurePairs is the failure corpus: random restricted pairs, the Fig. 2
// gallery, restricted processes with tau arcs against copies that keep or
// break ≡, reductions.Theorem51 images of random NFAs against renumbered
// copies and each other, and pool-shaped restricted processes against
// permuted and marked copies.
func failurePairs(t *testing.T, rng *rand.Rand) [][2]*fsp.FSP {
	var out [][2]*fsp.FSP
	for i := 0; i < 5; i++ {
		out = append(out, [2]*fsp.FSP{gen.RandomRestricted(rng, 10, 30, 2), gen.RandomRestricted(rng, 10, 30, 2)})
	}
	for _, g := range gen.Fig2Gallery() {
		out = append(out, [2]*fsp.FSP{g.P, g.Q})
	}
	var prev *fsp.FSP
	for i := 0; i < 12; i++ {
		base := accepting(gen.Random(rng, 6+rng.Intn(14), 10+rng.Intn(30), 2, 0.3+0.3*rng.Float64()))
		for _, q := range []*fsp.FSP{
			permuted(rng, base), twinFluffed(rng, base), tauPrefixed(base),
			rootLooped(base), marked(rng, base), twinFluffed(rng, permuted(rng, base)),
		} {
			out = append(out, [2]*fsp.FSP{base, q})
		}
		if prev != nil {
			out = append(out, [2]*fsp.FSP{prev, base})
		}
		prev = base
	}
	prev = nil
	for i := 0; i < 12; i++ {
		img, err := reductions.Theorem51(gen.RandomRestricted(rng, 3+rng.Intn(5), 4+rng.Intn(10), 2))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, [2]*fsp.FSP{img, permuted(rng, img)})
		if prev != nil {
			out = append(out, [2]*fsp.FSP{prev, img})
		}
		prev = img
	}
	for i := 0; i < 20; i++ {
		n := 10 + i
		base := gen.RandomRestricted(rng, n, 3*n, 3)
		q := permuted(rng, base)
		out = append(out, [2]*fsp.FSP{base, q}, [2]*fsp.FSP{base, marked(rng, q)})
	}
	return out
}

// TestCheckFailureRelation: over the failure corpus, the engine's failure
// verdict, decided on the cached ≈-quotients, equals failures.Equivalent
// on the originals, and the gallery keeps its documented verdicts.
func TestCheckFailureRelation(t *testing.T) {
	c := New()
	ctx := context.Background()
	pairs := failurePairs(t, rand.New(rand.NewSource(3)))
	equivalent := 0
	for i, pq := range pairs {
		p, q := pq[0], pq[1]
		got, err := c.Check(ctx, Query{P: p, Q: q, Rel: Failure})
		if err != nil {
			t.Fatalf("engine failure %d (%s, %s): %v", i, p.Name(), q.Name(), err)
		}
		want, _, err := failures.Equivalent(ctx, p, q)
		if err != nil {
			t.Fatalf("direct failure %d (%s, %s): %v", i, p.Name(), q.Name(), err)
		}
		if got != want {
			t.Errorf("failure pair %d (%s, %s): engine=%v direct=%v", i, p.Name(), q.Name(), got, want)
		}
		if got {
			equivalent++
		}
	}
	for _, g := range gen.Fig2Gallery() {
		if got, err := c.Check(ctx, Query{P: g.P, Q: g.Q, Rel: Failure}); err != nil || got != g.Failure {
			t.Errorf("%s: %v, %v; want %v", g.Name, got, err, g.Failure)
		}
	}
	t.Logf("%d pairs, %d failure equivalent", len(pairs), equivalent)
	if equivalent < len(pairs)/4 || equivalent > len(pairs)*3/4 {
		t.Fatalf("%d of %d pairs equivalent: the corpus no longer mixes the verdicts", equivalent, len(pairs))
	}
}

// TestFailureErrorParity: a failure query on a process outside the model
// ≡ is defined for fails with the one-shot checker's message, whether the
// process is P, Q or both (P == Q), and derives no quotient first. The
// inputs are a reachable and an unreachable non-accepting state (a
// quotient would drop the second), a y extension, and 65 observable
// actions, declared on a structural alias of a valid process whose record
// is already cached.
func TestFailureErrorParity(t *testing.T) {
	build := func(name string, more func(b *fsp.Builder)) *fsp.FSP {
		b := fsp.NewBuilder(name)
		b.AddStates(3)
		b.ArcName(0, "a", 1)
		b.ArcName(1, fsp.TauName, 2)
		b.ArcName(2, "b", 0)
		for s := 0; s < 3; s++ {
			b.Accept(fsp.State(s))
		}
		if more != nil {
			more(b)
		}
		return b.MustBuild()
	}
	good := build("good", nil)
	bad := []*fsp.FSP{
		build("reachable-non-accepting", func(b *fsp.Builder) {
			s := b.AddState()
			b.ArcName(0, "a", s)
		}),
		build("unreachable-non-accepting", func(b *fsp.Builder) { b.AddState() }),
		build("y-extension", func(b *fsp.Builder) { b.Extend(1, "y") }),
		build("wide-alphabet", func(b *fsp.Builder) {
			for i := 0; i < 63; i++ { // with a and b, 65 observable actions
				b.Action(fmt.Sprintf("w%d", i))
			}
		}),
		// The same structure under another name: the message names it.
		build("y-extension-again", func(b *fsp.Builder) { b.Extend(1, "y") }),
	}
	c := New()
	ctx := context.Background()
	// The alias of good with 65 actions shares good's cached record.
	if _, err := c.Check(ctx, Query{P: good, Q: permuted(rand.New(rand.NewSource(1)), good), Rel: Failure}); err != nil {
		t.Fatal(err)
	}
	var pairs [][2]*fsp.FSP
	for _, b := range bad {
		pairs = append(pairs, [2]*fsp.FSP{b, good}, [2]*fsp.FSP{good, b}, [2]*fsp.FSP{b, b})
	}
	// Two processes of 40 actions each pass alone, but their joint
	// alphabet has 80.
	wide := func(name string) *fsp.FSP {
		b := fsp.NewBuilder(name)
		b.AddStates(2)
		for i := 0; i < 40; i++ {
			b.ArcName(0, fmt.Sprintf("%s%d", name, i), 1)
		}
		b.Accept(0)
		b.Accept(1)
		return b.MustBuild()
	}
	wideP, wideQ := wide("p"), wide("q")
	pairs = append(pairs, [2]*fsp.FSP{wideP, wideQ}, [2]*fsp.FSP{wideQ, wideP})
	for _, pq := range pairs {
		p, q := pq[0], pq[1]
		_, _, want := failures.Equivalent(ctx, p, q)
		if want == nil {
			t.Fatalf("%s vs %s: the one-shot checker accepts the pair", p.Name(), q.Name())
		}
		derived := amWeak.derived.Value()
		_, err := c.Check(ctx, Query{P: p, Q: q, Rel: Failure})
		if err == nil || err.Error() != want.Error() {
			t.Errorf("%s vs %s: engine error %v, want %q", p.Name(), q.Name(), err, want)
		}
		if n := amWeak.derived.Value() - derived; n != 0 {
			t.Errorf("%s vs %s: the failing query derived %d ≈-quotients", p.Name(), q.Name(), n)
		}
	}
	// Each passes alone and against itself.
	for _, p := range []*fsp.FSP{wideP, wideQ} {
		if got, err := c.Check(ctx, Query{P: p, Q: p, Rel: Failure}); err != nil || !got {
			t.Errorf("%s vs itself: %v, %v; want equivalent", p.Name(), got, err)
		}
	}
	if got, err := c.Check(ctx, Query{P: good, Q: good, Rel: Failure}); err != nil || !got {
		t.Errorf("good vs itself: %v, %v; want equivalent", got, err)
	}
}

func TestArtifactsMemoized(t *testing.T) {
	p := buildTauA()
	c := New()
	m1, err := c.WeakQuotient(p)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := c.WeakQuotient(p)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Error("WeakQuotient must return the memoized artifact")
	}
	x1, err := c.signature(c.art(p), weakKind)
	if err != nil {
		t.Fatal(err)
	}
	x2, err := c.signature(c.art(p), weakKind)
	if err != nil {
		t.Fatal(err)
	}
	if x1 != x2 {
		t.Error("signature must return the memoized artifact")
	}
	// The quotient and its record live on tau.a's record: one record.
	if got := c.Processes(); got != 1 {
		t.Errorf("Processes = %d, want 1", got)
	}
}

// TestCheckAllConcurrentSharedCache hammers one Checker from 8
// goroutines over a small shared process pool so the race detector can
// see the cache paths: the artifacts map and the per-artifact sync.Once
// fields. Each goroutine takes every 8th query, as a batch pool would.
func TestCheckAllConcurrentSharedCache(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var procs []*fsp.FSP
	for i := 0; i < 4; i++ {
		procs = append(procs, gen.Random(rng, 20, 60, 2, 0.3))
	}
	var queries []Query
	rels := []Relation{Strong, Weak, Trace, Simulation}
	for i := 0; i < 64; i++ {
		queries = append(queries, Query{
			P:   procs[rng.Intn(len(procs))],
			Q:   procs[rng.Intn(len(procs))],
			Rel: rels[i%len(rels)],
		})
	}
	c := New()
	fanOut := func() []bool {
		const workers = 8
		verdicts := make([]bool, len(queries))
		errs := make([]error, len(queries))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(queries); i += workers {
					verdicts[i], errs[i] = c.Check(context.Background(), queries[i])
				}
			}(w)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
		}
		return verdicts
	}
	cold := fanOut()
	// A second pass over the warmed cache must agree verdict for verdict.
	warm := fanOut()
	for i := range cold {
		if cold[i] != warm[i] {
			t.Errorf("query %d: cold=%v warm=%v", i, cold[i], warm[i])
		}
	}
	// Quotients and their signature records live on their inputs'
	// records, so the cache holds exactly the distinct inputs.
	if got := c.Processes(); got != len(procs) {
		t.Errorf("Processes = %d, want %d", got, len(procs))
	}
}

// TestConcurrentArtifactAccess drives the artifact accessors themselves
// from many goroutines.
func TestConcurrentArtifactAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := accepting(gen.Random(rng, 30, 90, 2, 0.4))
	q := permuted(rng, p)
	c := New()
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 5 {
			case 0:
				_, err := c.StrongQuotient(p)
				if err == nil {
					_, err = c.signature(c.art(p), strongKind)
				}
				if err != nil {
					errs <- err
				}
			case 1:
				_, err := c.CongruenceQuotient(p)
				if err == nil {
					_, err = c.signature(c.art(p), congKind)
				}
				if err != nil {
					errs <- err
				}
			case 2:
				if _, err := c.StrongQuotient(p); err != nil {
					errs <- err
				}
			case 3:
				if _, err := c.WeakQuotient(p); err != nil {
					errs <- err
				}
			case 4:
				// Validates p's record and reads its ≈-quotient and record.
				if eq, err := c.Check(context.Background(), Query{P: p, Q: q, Rel: Failure}); err != nil || !eq {
					errs <- fmt.Errorf("failure query: %v, %v; want equivalent", eq, err)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestRelationString(t *testing.T) {
	for rel, want := range map[Relation]string{
		Strong: "strong", Weak: "weak", Trace: "trace", Failure: "failure",
		Congruence: "congruence", Simulation: "simulation",
		K: "k-observational", Limited: "k-limited", Relation(0): "unknown",
	} {
		if got := rel.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", rel, got, want)
		}
	}
}

// WeakQuotient returns the memoized reduced quotient of p modulo ≈
// (core.QuotientWeak).
func (c *Checker) WeakQuotient(p *fsp.FSP) (*fsp.FSP, error) {
	return c.quotient(c.art(p), weakKind)
}

// CheckNetworkOTF is CheckNetworkOTFInfo without the OTFInfo.
func (c *Checker) CheckNetworkOTF(ctx context.Context, net *compose.Network, spec *fsp.FSP, rel Relation, k int) (bool, error) {
	eq, _, err := c.CheckNetworkOTFInfo(ctx, net, spec, rel, k)
	return eq, err
}
