package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/lts"
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

// quotientKinds are the weak-closed quotient constructors under test.
var quotientKinds = []struct {
	name string
	fn   func(*fsp.FSP) (*fsp.FSP, []fsp.State, error)
}{
	{"weak", func(f *fsp.FSP) (*fsp.FSP, []fsp.State, error) { return core.QuotientWeak(f) }},
	{"congruence", func(f *fsp.FSP) (*fsp.FSP, []fsp.State, error) { return core.QuotientCongruence(f) }},
}

// TestQuotientsAreWeakClosed pins the fact the engine's ≈/≈ᶜ pair path
// rests on: saturating a quotient changes nothing but the reading of tau.
// fsp.Saturate(q) must equal q with every tau arc read as an epsilon arc
// plus one epsilon self-loop per state — so q's sigma-arcs already are all
// weak sigma-derivatives and its tau arcs are transitively closed up to
// the diagonal. lts.FromWeakClosed(q) must then equal the index of that
// saturation exactly.
func TestQuotientsAreWeakClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	checked := 0
	for i, f := range weakClosedCorpus(rng, 150) {
		for _, kind := range quotientKinds {
			q, _, err := kind.fn(f)
			if err != nil {
				t.Fatalf("case %d %s: %v", i, kind.name, err)
			}
			sat, eps, err := fsp.Saturate(q)
			if err != nil {
				t.Fatalf("case %d %s: saturate: %v", i, kind.name, err)
			}
			for s := 0; s < q.NumStates(); s++ {
				var want []fsp.Arc
				for _, a := range q.Arcs(fsp.State(s)) {
					if a.Act == fsp.Tau {
						a.Act = eps
					}
					want = append(want, a)
				}
				want = append(want, fsp.Arc{Act: eps, To: fsp.State(s)})
				slices.SortFunc(want, func(x, y fsp.Arc) int {
					if x.Act != y.Act {
						return int(x.Act - y.Act)
					}
					return int(x.To - y.To)
				})
				want = slices.Compact(want)
				if got := sat.Arcs(fsp.State(s)); !slices.Equal(got, want) {
					t.Fatalf("case %d %s (%s) state %d: P-hat row %v, want q's row with tau as epsilon plus a self-loop %v",
						i, kind.name, f.Name(), s, got, want)
				}
			}
			idx, err := lts.FromWeakClosed(q)
			if err != nil {
				t.Fatalf("case %d %s: %v", i, kind.name, err)
			}
			if !sameIndex(idx, lts.FromFSP(sat)) {
				t.Fatalf("case %d %s (%s): FromWeakClosed differs from the index of fsp.Saturate", i, kind.name, f.Name())
			}
			checked++
		}
	}
	if checked < 800 {
		t.Fatalf("only %d quotients checked", checked)
	}
}

// sameIndex compares two indexes by label table and forward arrays.
func sameIndex(a, b *lts.Index) bool {
	as, al, at := a.Fwd()
	bs, bl, bt := b.Fwd()
	return slices.Equal(a.LabelNames(), b.LabelNames()) &&
		slices.Equal(as, bs) && slices.Equal(al, bl) && slices.Equal(at, bt)
}

// TestFromWeakClosedRejectsEpsilon: an alphabet that already holds the
// epsilon name gets the saturation error, exactly as fsp.Saturate does.
func TestFromWeakClosedRejectsEpsilon(t *testing.T) {
	b := fsp.NewBuilder("eps-taken")
	b.AddStates(2)
	b.ArcName(0, fsp.EpsilonName, 1)
	f := b.MustBuild()
	if _, _, err := fsp.Saturate(f); err == nil {
		t.Fatal("setup: fsp.Saturate accepted an epsilon-named action")
	}
	if _, err := lts.FromWeakClosed(f); err == nil {
		t.Fatal("FromWeakClosed accepted an alphabet containing the epsilon name")
	}
}

// builderSortedQuotient is the former weakQuotient construction, kept as
// the oracle for the born-sorted one: every arc is added by name in
// representative-row order and Builder.Build sorts and dedups the rows.
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

// TestWeakQuotientBornSortedMatchesBuilder: the born-sorted quotient rows
// must give the very process the Builder-sorted construction gave —
// StructuralEqual, with the same Fingerprint2 — so quotient bytes, store
// keys and everything downstream of them cannot move.
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
			want := builderSortedQuotient(t, f, tc.suffix, tc.rootFix)
			if !fsp.StructuralEqual(got, want) || fsp.Fingerprint2(got) != fsp.Fingerprint2(want) {
				t.Fatalf("case %d %s (%s): born-sorted quotient differs from the Builder-sorted one", i, tc.name, f.Name())
			}
			if got.Name() != want.Name() || !got.Alphabet().Equal(want.Alphabet()) {
				t.Fatalf("case %d %s: name or alphabet moved", i, tc.name)
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

// TestCongruenceRootCycleThroughOtherClass pins the counterexample to the
// claim that a nonempty tau cycle cannot lead from the root class back to
// itself through other classes. P ≈ᶜ tau.P: tau.P's initial tau is
// matched by 0 → 2 → 0. The ≈ᶜ-quotient of tau.P has a root tau self-loop,
// while the root of P's quotient has only its tau arcs into the classes of
// 2 and 3 — so a root check that read only the roots' direct tau arcs
// would answer P ≉ᶜ tau.P. The weak-closed decider must count the root's
// own class through the two-step cycle and agree with the one-shot one.
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
	for _, pair := range [][2]*fsp.FSP{{qp, qtp}, {qtp, qp}} {
		ok, err := closedCongruent(pair[0], pair[1])
		if err != nil || !ok {
			t.Fatalf("ObservationCongruentClosed(%s, %s) = %v, %v; want ≈ᶜ", pair[0].Name(), pair[1].Name(), ok, err)
		}
	}
}

// closedCongruent runs ObservationCongruentClosed on two weak-closed
// processes with their own P-hat indexes.
func closedCongruent(f, g *fsp.FSP) (bool, error) {
	fi, err := lts.FromWeakClosed(f)
	if err != nil {
		return false, err
	}
	gi, err := lts.FromWeakClosed(g)
	if err != nil {
		return false, err
	}
	return core.ObservationCongruentClosed(f, g, fi, gi)
}

// TestObservationCongruentClosedMatchesOneShot: on pairs of ≈- and
// ≈ᶜ-quotients of the corpus (each process against its own variants and
// against unrelated processes), the weak-closed decider agrees with
// core.ObservationCongruent on the quotients and, for ≈ᶜ-quotients, on
// the originals.
func TestObservationCongruentClosedMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	corpus := weakClosedCorpus(rng, 40)
	equivalent := 0
	for i := 0; i < len(corpus); i++ {
		for _, j := range []int{i - i%3, i - i%3 + 1, i - i%3 + 2, rng.Intn(len(corpus))} {
			f, g := corpus[i], corpus[j]
			for _, kind := range quotientKinds {
				qf, _, err := kind.fn(f)
				if err != nil {
					t.Fatal(err)
				}
				qg, _, err := kind.fn(g)
				if err != nil {
					t.Fatal(err)
				}
				got, err := closedCongruent(qf, qg)
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.ObservationCongruent(qf, qg)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("%s quotients of %s and %s: closed decider %v, one-shot %v", kind.name, f.Name(), g.Name(), got, want)
				}
				if kind.name == "congruence" {
					orig, err := core.ObservationCongruent(f, g)
					if err != nil {
						t.Fatal(err)
					}
					if got != orig {
						t.Fatalf("≈ᶜ-quotients of %s and %s: closed decider %v, originals %v", f.Name(), g.Name(), got, orig)
					}
				}
				if got {
					equivalent++
				}
			}
		}
	}
	t.Logf("%d congruent quotient pairs", equivalent)
	if equivalent == 0 {
		t.Fatal("no congruent pair in the corpus: the differential is vacuous")
	}
}
