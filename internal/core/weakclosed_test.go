package core_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"ccs/internal/core"
	"ccs/internal/engine"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/partition"
)

// copyWith rebuilds f under a fresh name, lets more add states, arcs and
// extensions, and sets the start state to start (None keeps f's).
func copyWith(f *fsp.FSP, name string, start fsp.State, more func(b *fsp.Builder)) *fsp.FSP {
	b := fsp.NewBuilder(name)
	b.AddStates(f.NumStates())
	for s := 0; s < f.NumStates(); s++ {
		for _, a := range f.Arcs(fsp.State(s)) {
			b.ArcName(fsp.State(s), f.Alphabet().Name(a.Act), a.To)
		}
		for _, id := range f.Ext(fsp.State(s)).IDs() {
			b.Extend(fsp.State(s), f.Vars().Name(id))
		}
	}
	if more != nil {
		more(b)
	}
	if start == fsp.None {
		start = f.Start()
	}
	b.SetStart(start)
	return b.MustBuild()
}

// tauPrefix returns tau.f: a fresh root, with the extension of f's root,
// whose only move is a tau into f's root.
func tauPrefix(f *fsp.FSP) *fsp.FSP {
	root := fsp.State(f.NumStates())
	return copyWith(f, "tau."+f.Name(), root, func(b *fsp.Builder) {
		b.AddState()
		for _, id := range f.Ext(f.Start()).IDs() {
			b.Extend(root, f.Vars().Name(id))
		}
		b.ArcName(root, fsp.TauName, f.Start())
	})
}

// multiVar returns f with two more extension variables scattered over its
// states, so extensions are sets rather than a single accepting bit.
func multiVar(rng *rand.Rand, f *fsp.FSP) *fsp.FSP {
	return copyWith(f, f.Name()+"+vars", fsp.None, func(b *fsp.Builder) {
		for s := 0; s < f.NumStates(); s++ {
			for _, v := range []string{"y", "z"} {
				if rng.Intn(3) == 0 {
					b.Extend(fsp.State(s), v)
				}
			}
		}
	})
}

// weakClosedCorpus returns random, tau-rich, restricted and multi-variable
// processes together with their tau-prefixed and fluffed copies.
func weakClosedCorpus(rng *rand.Rand, n int) []*fsp.FSP {
	var out []*fsp.FSP
	for i := 0; i < n; i++ {
		states := 2 + rng.Intn(14)
		var base *fsp.FSP
		switch i % 4 {
		case 0:
			base = gen.Random(rng, states, 1+rng.Intn(3*states), 1+rng.Intn(3), 0.3)
		case 1:
			base = gen.Random(rng, states, 1+rng.Intn(3*states), 2, 0.7)
		case 2:
			base = gen.RandomRestricted(rng, states, 1+rng.Intn(3*states), 2)
		default:
			base = multiVar(rng, gen.Random(rng, states, 1+rng.Intn(3*states), 2, 0.5))
		}
		out = append(out, base, tauPrefix(base), fluff(rng, base))
	}
	return out
}

// quotientKinds are the reduced quotient constructors under test.
var quotientKinds = []struct {
	name string
	fn   func(*fsp.FSP) (*fsp.FSP, []fsp.State, error)
}{
	{"weak", func(f *fsp.FSP) (*fsp.FSP, []fsp.State, error) { return core.QuotientWeak(f) }},
	{"congruence", func(f *fsp.FSP) (*fsp.FSP, []fsp.State, error) { return core.QuotientCongruence(f) }},
}

// weakClosure returns q's weak closure in quotient form: its sigma-arcs
// are q's weak sigma-derivatives and its tau arcs lead to the states q
// reaches by τ* other than itself, plus q's root tau self-loop if it has
// one. For a reduced quotient that is the dense quotient it was reduced
// from.
func weakClosure(t testing.TB, q *fsp.FSP) *fsp.FSP {
	t.Helper()
	sat, eps, err := fsp.Saturate(q)
	if err != nil {
		t.Fatal(err)
	}
	b := fsp.NewBuilderWith(q.Name(), q.Alphabet().Clone(), q.Vars().Clone())
	b.AddStates(q.NumStates())
	b.SetStart(q.Start())
	for s := fsp.State(0); int(s) < q.NumStates(); s++ {
		for _, a := range sat.Arcs(s) {
			switch {
			case a.Act != eps:
				b.Arc(s, a.Act, a.To)
			case a.To != s:
				b.Arc(s, fsp.Tau, a.To)
			}
		}
		for _, id := range q.Ext(s).IDs() {
			b.Extend(s, q.Vars().Name(id))
		}
	}
	if r := q.Start(); q.HasArc(r, fsp.Tau, r) {
		b.Arc(r, fsp.Tau, r)
	}
	return b.MustBuild()
}

// reduceDense is weakQuotient's reduction by its definition, on boolean
// matrices over the states of a dense quotient d: E(C) is C and its tau
// targets, SCC(C) the members of E(C) whose E holds C, T(C) the rest and
// R(C) the members of T(C) below no other member of T(C). C keeps its tau
// arcs to SCC(C) \ {C} and R(C) (and a root self-loop), and its σ-arcs to
// S_σ(C) \ ⋃_{D∈R(C)} S_σ(D) \ ⋃_{D∈S_σ(C)} R(D).
func reduceDense(d *fsp.FSP) *fsp.FSP {
	k := d.NumStates()
	matrix := func() [][]bool {
		m := make([][]bool, k)
		for i := range m {
			m[i] = make([]bool, k)
		}
		return m
	}
	e, tt, r := matrix(), matrix(), matrix()
	for c := 0; c < k; c++ {
		e[c][c] = true
		for _, x := range d.Dest(fsp.State(c), fsp.Tau) {
			e[c][x] = true
		}
	}
	for c := 0; c < k; c++ {
		for x := 0; x < k; x++ {
			tt[c][x] = e[c][x] && !e[x][c]
		}
	}
	for c := 0; c < k; c++ {
		for x := 0; x < k; x++ {
			r[c][x] = tt[c][x]
			for y := 0; y < k && r[c][x]; y++ {
				r[c][x] = !(tt[c][y] && tt[y][x])
			}
		}
	}
	b := fsp.NewBuilderWith(d.Name(), d.Alphabet().Clone(), d.Vars().Clone())
	b.AddStates(k)
	b.SetStart(d.Start())
	for c := 0; c < k; c++ {
		at := fsp.State(c)
		for x := 0; x < k; x++ {
			if x != c && e[c][x] && e[x][c] || r[c][x] {
				b.Arc(at, fsp.Tau, fsp.State(x))
			}
		}
		if d.HasArc(at, fsp.Tau, at) {
			b.Arc(at, fsp.Tau, at)
		}
		for _, a := range d.Arcs(at) {
			if a.Act == fsp.Tau {
				continue
			}
			keep := true
			for y := 0; y < k && keep; y++ {
				if r[c][y] && d.HasArc(fsp.State(y), a.Act, a.To) || d.HasArc(at, a.Act, fsp.State(y)) && r[y][a.To] {
					keep = false
				}
			}
			if keep {
				b.Arc(at, a.Act, a.To)
			}
		}
		for _, id := range d.Ext(at).IDs() {
			b.Extend(at, d.Vars().Name(id))
		}
	}
	return b.MustBuild()
}

// sameProcess reports whether two processes agree in structure, in their
// second fingerprint and in name.
func sameProcess(a, b *fsp.FSP) bool {
	return fsp.StructuralEqual(a, b) && fsp.Fingerprint2(a) == fsp.Fingerprint2(b) && a.Name() == b.Name()
}

// checkReduced checks a reduced quotient q against its dense quotient
// dense: q is dense's reduction by definition, saturating q gives dense
// back arc for arc, and q has no more arcs than dense.
func checkReduced(t *testing.T, name string, q, dense *fsp.FSP) {
	t.Helper()
	if !sameProcess(q, reduceDense(dense)) {
		t.Fatalf("%s: reduced quotient differs from the reduction of the dense one by definition\ngot:\n%s\nwant:\n%s",
			name, fsp.FormatString(q), fsp.FormatString(reduceDense(dense)))
	}
	if !sameProcess(weakClosure(t, q), dense) {
		t.Fatalf("%s: saturating the reduced quotient does not give the dense one back", name)
	}
	if q.NumTransitions() > dense.NumTransitions() {
		t.Fatalf("%s: reduced quotient has %d arcs, the dense one %d", name, q.NumTransitions(), dense.NumTransitions())
	}
}

// TestReducedQuotientsSaturateToDense: over the weak-closed corpus, each
// reduced ≈- and ≈ᶜ-quotient is the reduction of the dense quotient that
// saturate-and-partition builds, its weak closure is that dense quotient
// arc for arc, and the dense emitters kept as the oracle build the same
// dense quotient.
func TestReducedQuotientsSaturateToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	checked, reduced, dense := 0, 0, 0
	for i, f := range weakClosedCorpus(rng, 150) {
		for _, kind := range []struct {
			name    string
			suffix  string
			rootFix bool
			fn      func(*fsp.FSP) (*fsp.FSP, []fsp.State, error)
			oracle  func(*fsp.FSP) (*fsp.FSP, error)
		}{
			{"weak", "/≈", false, quotientKinds[0].fn, core.DenseQuotientWeak},
			{"congruence", "/≈ᶜ", true, quotientKinds[1].fn, core.DenseQuotientCongruence},
		} {
			q, _, err := kind.fn(f)
			if err != nil {
				t.Fatalf("case %d %s: %v", i, kind.name, err)
			}
			want := builderSortedQuotient(t, f, kind.suffix, kind.rootFix)
			checkReduced(t, fmt.Sprintf("case %d %s (%s)", i, kind.name, f.Name()), q, want)
			got, err := kind.oracle(f)
			if err != nil || !sameProcess(got, want) {
				t.Fatalf("case %d %s: the dense oracle differs from saturate-and-partition's quotient (%v)", i, kind.name, err)
			}
			checked++
			reduced += q.NumTransitions()
			dense += want.NumTransitions()
		}
	}
	t.Logf("%d quotients: %d reduced arcs against %d dense", checked, reduced, dense)
	if checked < 800 || reduced >= dense {
		t.Fatalf("only %d quotients checked, %d reduced arcs against %d dense", checked, reduced, dense)
	}
}

// TestQuotientsRejectEpsilon: an alphabet that already holds the epsilon
// name gets the saturation error from both quotients, exactly as
// fsp.Saturate does.
func TestQuotientsRejectEpsilon(t *testing.T) {
	b := fsp.NewBuilder("eps-taken")
	b.AddStates(2)
	b.ArcName(0, fsp.EpsilonName, 1)
	f := b.MustBuild()
	if _, _, err := fsp.Saturate(f); err == nil {
		t.Fatal("setup: fsp.Saturate accepted an epsilon-named action")
	}
	for _, kind := range quotientKinds {
		if _, _, err := kind.fn(f); err == nil {
			t.Fatalf("%s quotient accepted an alphabet containing the epsilon name", kind.name)
		}
	}
}

// builderSortedQuotient is saturate-and-partition's dense quotient, the
// oracle for the reduced one: every arc of a representative's P-hat row is
// added by name in row order, and Builder.Build sorts and dedups the rows.
func builderSortedQuotient(t *testing.T, f *fsp.FSP, suffix string, rootFix bool) *fsp.FSP {
	t.Helper()
	sat, eps, err := fsp.Saturate(f)
	if err != nil {
		t.Fatal(err)
	}
	return builderSortedQuotientOf(f, sat, eps, core.StrongPartition(sat), suffix, rootFix)
}

// builderSortedQuotientOf is builderSortedQuotient given f's saturation
// sat, its epsilon action and the partition p of sat.
func builderSortedQuotientOf(f, sat *fsp.FSP, eps fsp.Action, p *partition.Partition, suffix string, rootFix bool) *fsp.FSP {
	rootBlk := p.Block(int32(f.Start()))
	rootTau := false
	if rootFix {
		for _, to := range f.Dest(f.Start(), fsp.Tau) {
			if p.Block(int32(to)) == rootBlk {
				rootTau = true
			}
		}
	}
	b := fsp.NewBuilderWith(f.Name()+suffix, f.Alphabet().Clone(), f.Vars().Clone())
	b.AddStates(p.NumBlocks())
	root := fsp.State(rootBlk)
	b.SetStart(root)
	reps := make([]fsp.State, p.NumBlocks())
	for i := range reps {
		reps[i] = fsp.None
	}
	for s := 0; s < f.NumStates(); s++ {
		if blk := p.Block(int32(s)); reps[blk] == fsp.None {
			reps[blk] = fsp.State(s)
		}
	}
	for blk, rep := range reps {
		at := fsp.State(blk)
		for _, a := range sat.Arcs(rep) {
			toBlk := fsp.State(p.Block(int32(a.To)))
			if a.Act == eps {
				if toBlk != at {
					b.Arc(at, fsp.Tau, toBlk)
				}
				continue
			}
			b.ArcName(at, sat.Alphabet().Name(a.Act), toBlk)
		}
		for _, id := range f.Ext(rep).IDs() {
			b.Extend(at, f.Vars().Name(id))
		}
	}
	if rootTau {
		b.Arc(root, fsp.Tau, root)
	}
	return b.MustBuild()
}

// TestWeakQuotientBornSortedMatchesBuilder: the born-sorted reduced rows
// must give the very process that the definition's reduction of the
// Builder-sorted dense quotient gives — StructuralEqual, with the same
// Fingerprint2, name and alphabet — on the corpus and on nondeterministic
// specs.
func TestWeakQuotientBornSortedMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	corpus := append(weakClosedCorpus(rng, 60), gen.CounterSpec(4), gen.NondetTokenRingSpec(), gen.LossyCell(3))
	for i, f := range corpus {
		for _, tc := range []struct {
			name    string
			suffix  string
			rootFix bool
			fn      func(*fsp.FSP) (*fsp.FSP, []fsp.State, error)
		}{
			{"weak", "/≈", false, quotientKinds[0].fn},
			{"congruence", "/≈ᶜ", true, quotientKinds[1].fn},
		} {
			got, _, err := tc.fn(f)
			if err != nil {
				t.Fatalf("case %d %s: %v", i, tc.name, err)
			}
			want := reduceDense(builderSortedQuotient(t, f, tc.suffix, tc.rootFix))
			if !sameProcess(got, want) || !got.Alphabet().Equal(want.Alphabet()) {
				t.Fatalf("case %d %s (%s): born-sorted reduced quotient differs from the Builder-sorted one", i, tc.name, f.Name())
			}
		}
	}
}

// rootCycleProcess is P = arc 0 tau 2, arc 0 tau 3, arc 2 tau 0 with
// ext(2) = {x}: states 0 and 2 reach each other silently, yet they are not
// ≈ (their extensions differ), so the quotient keeps the tau cycle
// 0 → 2 → 0 through two classes.
func rootCycleProcess() *fsp.FSP {
	b := fsp.NewBuilder("root-cycle")
	b.AddStates(4)
	b.ArcName(0, fsp.TauName, 2)
	b.ArcName(0, fsp.TauName, 3)
	b.ArcName(2, fsp.TauName, 0)
	b.Extend(2, fsp.StandardVar)
	return b.MustBuild()
}

// congruentOnPairPath decides f ≈ᶜ g by the engine's pair path: the
// signature records of the two reduced ≈ᶜ-quotients, or the partition
// solve on their union when the records leave the pair open.
func congruentOnPairPath(t *testing.T, f, g *fsp.FSP) bool {
	t.Helper()
	eq, err := engine.New().Check(context.Background(), engine.Query{P: f, Q: g, Rel: engine.Congruence})
	if err != nil {
		t.Fatal(err)
	}
	return eq
}

// TestCongruenceRootCycleThroughOtherClass pins the counterexample to the
// claim that a nonempty tau cycle cannot lead from the root class back to
// itself through other classes. P ≈ᶜ tau.P: tau.P's initial tau is
// matched by 0 → 2 → 0. The ≈ᶜ-quotient of tau.P has a root tau self-loop,
// while the root of P's quotient has only its tau arcs into the classes of
// 2 and 3 — so a root check that read only the roots' direct tau arcs
// would answer P ≉ᶜ tau.P. The engine's pair path must count the root's
// own class through the two-step cycle and agree with the one-shot
// decider, on the processes and on their quotients.
func TestCongruenceRootCycleThroughOtherClass(t *testing.T) {
	p := rootCycleProcess()
	tp := tauPrefix(p)
	if ok, err := core.ObservationCongruent(p, tp); err != nil || !ok {
		t.Fatalf("P ≈ᶜ tau.P by the one-shot decider: got %v, %v", ok, err)
	}
	qp, _, err := core.QuotientCongruence(p)
	if err != nil {
		t.Fatal(err)
	}
	qtp, _, err := core.QuotientCongruence(tp)
	if err != nil {
		t.Fatal(err)
	}
	if qp.NumStates() != 3 || qp.HasArc(qp.Start(), fsp.Tau, qp.Start()) {
		t.Fatalf("P's quotient: %d states, root self-loop %v; want 3 states and no self-loop",
			qp.NumStates(), qp.HasArc(qp.Start(), fsp.Tau, qp.Start()))
	}
	if !qtp.HasArc(qtp.Start(), fsp.Tau, qtp.Start()) {
		t.Fatal("tau.P's quotient must carry the root tau self-loop")
	}
	if ok, err := core.ObservationCongruent(qp, qtp); err != nil || !ok {
		t.Fatalf("one-shot decider on the quotients: got %v, %v", ok, err)
	}
	for _, pair := range [][2]*fsp.FSP{{p, tp}, {tp, p}, {qp, qtp}, {qtp, qp}} {
		if !congruentOnPairPath(t, pair[0], pair[1]) {
			t.Fatalf("engine: %s ≉ᶜ %s; want ≈ᶜ", pair[0].Name(), pair[1].Name())
		}
	}
}

// threeClassCycle is a root on a tau cycle through two other classes:
// 0 → 1 → 2 → 0 by tau, with ext(1) = {x} and ext(2) = {y}, so the three
// states are three ≈-classes that form one class-level tau-SCC. With
// inClass set, the root also has a direct tau into its own class: to a
// state 3 with the root's extension and a tau arc to 1.
func threeClassCycle(inClass bool) *fsp.FSP {
	b := fsp.NewBuilder("three-class-cycle")
	b.AddStates(3)
	b.ArcName(0, fsp.TauName, 1)
	b.ArcName(1, fsp.TauName, 2)
	b.ArcName(2, fsp.TauName, 0)
	b.Extend(1, "x")
	b.Extend(2, "y")
	if inClass {
		twin := b.AddState()
		b.ArcName(0, fsp.TauName, twin)
		b.ArcName(twin, fsp.TauName, 1)
	}
	return b.MustBuild()
}

// TestCongruenceRootOnThreeClassCycle: a root on a tau cycle through two
// other classes, with and without a direct in-class tau, against its
// tau-prefixed copy. The engine's ≈ᶜ verdict equals the one-shot
// decider's on the originals, and each reduced ≈ᶜ-quotient keeps all six
// tau arcs of the three-class SCC (plus the root loop where the root has
// an in-class tau), so the root reads as on a tau cycle.
func TestCongruenceRootOnThreeClassCycle(t *testing.T) {
	for _, inClass := range []bool{false, true} {
		p := threeClassCycle(inClass)
		for _, g := range []*fsp.FSP{p, tauPrefix(p)} {
			want, err := core.ObservationCongruent(p, g)
			if err != nil {
				t.Fatal(err)
			}
			if !want {
				t.Fatalf("in-class %v: one-shot decider says %s ≉ᶜ %s", inClass, p.Name(), g.Name())
			}
			if got := congruentOnPairPath(t, p, g); got != want {
				t.Fatalf("in-class %v, %s vs %s: engine %v, one-shot %v", inClass, p.Name(), g.Name(), got, want)
			}
			q, _, err := core.QuotientCongruence(g)
			if err != nil {
				t.Fatal(err)
			}
			if q.NumStates() != 3 {
				t.Fatalf("in-class %v: %s's quotient has %d states, want 3", inClass, g.Name(), q.NumStates())
			}
			tau := 0
			for c := fsp.State(0); c < 3; c++ {
				for d := fsp.State(0); d < 3; d++ {
					if c != d && !q.HasArc(c, fsp.Tau, d) {
						t.Fatalf("in-class %v: %s's quotient lacks the SCC's tau arc %d → %d", inClass, g.Name(), c, d)
					}
				}
				tau += len(q.Dest(c, fsp.Tau))
			}
			loop, wantTau := g != p || inClass, 6
			if loop {
				wantTau++
			}
			if r := q.Start(); q.HasArc(r, fsp.Tau, r) != loop || tau != wantTau {
				t.Fatalf("in-class %v: %s's quotient has %d tau arcs, root loop %v; want %d and loop %v",
					inClass, g.Name(), tau, q.HasArc(r, fsp.Tau, r), wantTau, loop)
			}
		}
	}
}

// TestCongruencePairPathMatchesOneShot: on pairs of the corpus (each
// process against its own variants and against unrelated processes), the
// engine's ≈ and ≈ᶜ verdicts agree with the one-shot deciders on the
// originals, and so does the open-pair fallback: the one-shot deciders run
// on the two reduced quotients.
func TestCongruencePairPathMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	corpus := weakClosedCorpus(rng, 40)
	c := engine.New()
	ctx := context.Background()
	equivalent := 0
	for i := 0; i < len(corpus); i++ {
		for _, j := range []int{i - i%3, i - i%3 + 1, i - i%3 + 2, rng.Intn(len(corpus))} {
			f, g := corpus[i], corpus[j]
			for _, kind := range []struct {
				name     string
				rel      engine.Relation
				quotient func(*fsp.FSP) (*fsp.FSP, []fsp.State, error)
				oneShot  func(f, g *fsp.FSP) (bool, error)
			}{
				{"weak", engine.Weak, core.QuotientWeak, core.WeakEquivalent},
				{"congruence", engine.Congruence, core.QuotientCongruence, core.ObservationCongruent},
			} {
				want, err := kind.oneShot(f, g)
				if err != nil {
					t.Fatal(err)
				}
				got, err := c.Check(ctx, engine.Query{P: f, Q: g, Rel: kind.rel})
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s: %s vs %s: engine %v, one-shot %v", kind.name, f.Name(), g.Name(), got, want)
				}
				qf, _, err := kind.quotient(f)
				if err != nil {
					t.Fatal(err)
				}
				qg, _, err := kind.quotient(g)
				if err != nil {
					t.Fatal(err)
				}
				if open, err := kind.oneShot(qf, qg); err != nil || open != want {
					t.Fatalf("%s quotients of %s and %s: one-shot %v (%v), originals %v", kind.name, f.Name(), g.Name(), open, err, want)
				}
				if got {
					equivalent++
				}
			}
		}
	}
	t.Logf("%d equivalent pairs", equivalent)
	if equivalent == 0 {
		t.Fatal("no equivalent pair in the corpus: the differential is vacuous")
	}
}
