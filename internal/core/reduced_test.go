package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// congruentFluff returns a copy of f that is ≈ and ≈ᶜ to it, in the two
// shapes of the benchmark's fluff: some observable arcs s -a-> t gain a
// twin s -a-> t' with t' -tau-> t, and some states other than the start
// gain a refresh twin r with s -tau-> r -tau-> s. Each new state copies
// the extension of the state it shadows, and the root gains no tau.
func congruentFluff(rng *rand.Rand, f *fsp.FSP) *fsp.FSP {
	return copyWith(f, f.Name()+"/fluff", fsp.None, func(b *fsp.Builder) {
		copyExt := func(dst, src fsp.State) {
			for _, id := range f.Ext(src).IDs() {
				b.Extend(dst, f.Vars().Name(id))
			}
		}
		for s := fsp.State(0); int(s) < f.NumStates(); s++ {
			for _, a := range f.Arcs(s) {
				if a.Act == fsp.Tau || rng.Intn(3) != 0 {
					continue
				}
				twin := b.AddState()
				copyExt(twin, a.To)
				b.ArcName(s, f.Alphabet().Name(a.Act), twin)
				b.ArcName(twin, fsp.TauName, a.To)
			}
			if s != f.Start() && rng.Intn(3) == 0 {
				r := b.AddState()
				copyExt(r, s)
				b.ArcName(s, fsp.TauName, r)
				b.ArcName(r, fsp.TauName, s)
			}
		}
	})
}

// isomorphicUnder reports why phi, a map from a's states to b's, is not an
// isomorphism of a onto b that maps root to root and matches action and
// variable names, or "" when it is one.
func isomorphicUnder(a, b *fsp.FSP, phi []fsp.State) string {
	if a.NumStates() != b.NumStates() || phi[a.Start()] != b.Start() {
		return fmt.Sprintf("%d states against %d, or the roots differ", a.NumStates(), b.NumStates())
	}
	hit := make([]bool, b.NumStates())
	for s := fsp.State(0); int(s) < a.NumStates(); s++ {
		t := phi[s]
		if hit[t] {
			return fmt.Sprintf("two states map to %d", t)
		}
		hit[t] = true
		if ea, eb := a.Ext(s).Format(a.Vars()), b.Ext(t).Format(b.Vars()); ea != eb {
			return fmt.Sprintf("state %d has extension %s, its image %s", s, ea, eb)
		}
		arcs := map[string]bool{}
		for _, x := range a.Arcs(s) {
			arcs[fmt.Sprint(a.Alphabet().Name(x.Act), phi[x.To])] = true
		}
		for _, y := range b.Arcs(t) {
			if !arcs[fmt.Sprint(b.Alphabet().Name(y.Act), y.To)] {
				return fmt.Sprintf("state %d's image %d has an arc %s → %d without a preimage", s, t, b.Alphabet().Name(y.Act), y.To)
			}
		}
		if len(a.Arcs(s)) != len(b.Arcs(t)) {
			return fmt.Sprintf("state %d has %d arcs, its image %d", s, len(a.Arcs(s)), len(b.Arcs(t)))
		}
	}
	return ""
}

// classMap lifts a state correspondence between two processes to their
// quotients' classes: class mf[s] goes to class mg[pair(s)] for every
// state s of f. It returns nil when two states of one class go to
// different classes.
func classMap(mf, mg []fsp.State, classes int, pair func(fsp.State) fsp.State) []fsp.State {
	phi := make([]fsp.State, classes)
	for i := range phi {
		phi[i] = fsp.None
	}
	for s, c := range mf {
		d := mg[pair(fsp.State(s))]
		if phi[c] != fsp.None && phi[c] != d {
			return nil
		}
		phi[c] = d
	}
	return phi
}

// reducedKinds are the two reduced quotients with their dense oracles and
// root rules.
var reducedKinds = []struct {
	name     string
	rule     core.RootRule
	quotient func(*fsp.FSP) (*fsp.FSP, []fsp.State, error)
	dense    func(*fsp.FSP) (*fsp.FSP, error)
}{
	{"weak", core.NoRootRule, core.QuotientWeak, core.DenseQuotientWeak},
	{"congruence", core.SameRootCycle, core.QuotientCongruence, core.DenseQuotientCongruence},
}

// checkCanonical checks that the reduced quotients of f and of a copy g
// whose states correspond to f's by pair (g's other states being ≈ᶜ to
// some of them) are isomorphic by the induced class map, get identical
// signature records and are decided equivalent by the records, and that
// each has no more arcs than its dense quotient.
func checkCanonical(t *testing.T, f, g *fsp.FSP, pair func(fsp.State) fsp.State) {
	t.Helper()
	for _, kind := range reducedKinds {
		qf, mf, err := kind.quotient(f)
		if err != nil {
			t.Fatal(err)
		}
		qg, mg, err := kind.quotient(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range []struct{ reduced, of *fsp.FSP }{{qf, f}, {qg, g}} {
			dense, err := kind.dense(q.of)
			if err != nil {
				t.Fatal(err)
			}
			if q.reduced.NumTransitions() > dense.NumTransitions() {
				t.Fatalf("%s quotient of %s: %d arcs, the dense one %d", kind.name, q.of.Name(), q.reduced.NumTransitions(), dense.NumTransitions())
			}
		}
		phi := classMap(mf, mg, qf.NumStates(), pair)
		if phi == nil {
			t.Fatalf("%s quotients of %s and %s: the state correspondence splits a class", kind.name, f.Name(), g.Name())
		}
		if why := isomorphicUnder(qf, qg, phi); why != "" {
			t.Fatalf("%s quotients of %s and %s are not isomorphic: %s\n%s\n%s", kind.name, f.Name(), g.Name(), why,
				fsp.FormatString(qf), fsp.FormatString(qg))
		}
		sf, sg := core.NewSignature(qf), core.NewSignature(qg)
		if !core.SameRecord(sf, sg) {
			t.Fatalf("%s quotients of %s and %s: records differ", kind.name, f.Name(), g.Name())
		}
		if eq, d := core.DecideSignatures(sf, sg, kind.rule); !eq || d != core.ByIsomorphism {
			t.Fatalf("%s quotients of %s and %s: records decide %v by %v, want an isomorphism", kind.name, f.Name(), g.Name(), eq, d)
		}
	}
}

// renumbered copies f with its states renumbered by perm and its actions
// interned in reverse name order.
func renumbered(f *fsp.FSP, perm []int) *fsp.FSP {
	acts := observableNames(f.Alphabet())
	slices.Reverse(acts)
	b := fsp.NewBuilderWith(f.Name()+"/re", fsp.NewAlphabet(acts...), fsp.MustVarTable())
	b.AddStates(f.NumStates())
	for s := 0; s < f.NumStates(); s++ {
		for _, a := range f.Arcs(fsp.State(s)) {
			b.ArcName(fsp.State(perm[s]), f.Alphabet().Name(a.Act), fsp.State(perm[a.To]))
		}
		for _, id := range f.Ext(fsp.State(s)).IDs() {
			b.Extend(fsp.State(perm[s]), f.Vars().Name(id))
		}
	}
	b.SetStart(fsp.State(perm[f.Start()]))
	return b.MustBuild()
}

// checkCopies checks f against a renumbered copy and a congruent fluff.
func checkCopies(t *testing.T, rng *rand.Rand, f *fsp.FSP) {
	t.Helper()
	perm := rng.Perm(f.NumStates())
	checkCanonical(t, f, renumbered(f, perm), func(s fsp.State) fsp.State { return fsp.State(perm[s]) })
	checkCanonical(t, f, congruentFluff(rng, f), func(s fsp.State) fsp.State { return s })
}

// TestReducedQuotientCanonical: over the pool-shaped, restricted,
// tau-rich and weak-closed corpora and the galleries, renumbered and
// congruently fluffed copies get isomorphic reduced quotients and
// identical records.
func TestReducedQuotientCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	corpus := poolShaped(rng, 15)
	for i := 0; i < 40; i++ {
		n := 2 + rng.Intn(30)
		corpus = append(corpus,
			gen.RandomRestricted(rng, n, rng.Intn(3*n+1), 2),
			gen.Random(rng, n, rng.Intn(4*n+1), 1+rng.Intn(3), 0.6+0.4*rng.Float64()))
	}
	corpus = append(corpus, weakClosedCorpus(rng, 20)...)
	corpus = append(corpus, galleryProcesses()...)
	for _, f := range corpus {
		checkCopies(t, rng, f)
	}
}

// FuzzReducedQuotient checks the canonical form of the reduced quotients
// on a fuzzed process, a renumbered copy and a congruent fluff of it
// (checkCanonical), the copies drawn from seed.
func FuzzReducedQuotient(f *testing.F) {
	f.Add([]byte{2, 0, 2, 1, 1, 0, 2}, int64(1))
	f.Add([]byte{3, 0, 2, 1, 1, 2, 2, 2, 1, 0, 0, 3, 0}, int64(2))
	f.Add([]byte{7, 0, 2, 1, 1, 2, 2, 2, 2, 3, 3, 2, 4, 4, 2, 5, 5, 0, 6}, int64(3))
	// A root on a tau cycle through two other classes, 0 → 1 → 2 → 0,
	// with y at 1 and x at 2, and an in-class tau 0 → 3 → 1.
	f.Add([]byte{3, 0, 2, 1, 1, 2, 2, 2, 2, 0, 1, 3, 1, 2, 3, 2, 0, 2, 3, 3, 2, 1}, int64(4))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		checkCopies(t, rand.New(rand.NewSource(seed)), fuzzProcess("p", data))
	})
}

// TestReducedQuotientAcrossPaths: a process whose ≈-partition passes the
// round cap and falls back to saturation, against itself padded with
// 5,000 unreachable states, whose larger cap the rounds do not reach —
// the nondeterministic counter spec of 50 stages, and the same with some
// states given a silent move to a marked dead end, so that the quotient
// has tau arcs. The two sides take different paths, and their reduced
// quotients must still be isomorphic, class for class.
func TestReducedQuotientAcrossPaths(t *testing.T) {
	spec := gen.NondetCounterSpec(50)
	marked := copyWith(spec, spec.Name()+"+tau", fsp.None, func(b *fsp.Builder) {
		dead := b.AddState()
		b.Extend(dead, "y")
		for s := 0; s < spec.NumStates(); s += 3 {
			b.ArcName(fsp.State(s), fsp.TauName, dead)
		}
	})
	for _, f := range []*fsp.FSP{spec, marked} {
		padded := copyWith(f, f.Name()+"+pad", fsp.None, func(b *fsp.Builder) { b.AddStates(5000) })
		for _, kind := range reducedKinds {
			for _, tc := range []struct {
				g                 *fsp.FSP
				rounds, saturated int64
			}{{f, 0, 1}, {padded, 1, 0}} {
				r0, _, s0 := core.WeakPaths()
				if _, _, err := kind.quotient(tc.g); err != nil {
					t.Fatal(err)
				}
				if r, _, s := core.WeakPaths(); r-r0 != tc.rounds || s-s0 != tc.saturated {
					t.Fatalf("%s quotient of %s: %d rounds and %d saturation derivations, want %d and %d",
						kind.name, tc.g.Name(), r-r0, s-s0, tc.rounds, tc.saturated)
				}
			}
			qf, mf, err := kind.quotient(f)
			if err != nil {
				t.Fatal(err)
			}
			qp, mp, err := kind.quotient(padded)
			if err != nil {
				t.Fatal(err)
			}
			dense, err := kind.dense(f)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s quotient of %s: %d classes, %d arcs against %d dense", kind.name, f.Name(), qf.NumStates(), qf.NumTransitions(), dense.NumTransitions())
			// The padding is one more class, which no state of f reaches.
			phi := classMap(mf, mp, qf.NumStates(), func(s fsp.State) fsp.State { return s })
			if phi == nil || qp.NumStates() != qf.NumStates()+1 {
				t.Fatalf("%s quotients of %s: %d and %d classes", kind.name, f.Name(), qf.NumStates(), qp.NumStates())
			}
			pad := mp[f.NumStates()]
			if len(qp.Arcs(pad)) != 0 {
				t.Fatalf("%s quotient of %s: the padding class has arcs", kind.name, padded.Name())
			}
			if why := isomorphicUnder(qf, dropState(t, qp, pad), renumberAround(phi, pad)); why != "" {
				t.Fatalf("%s quotients of %s and %s are not isomorphic: %s", kind.name, f.Name(), padded.Name(), why)
			}
		}
	}
}

// dropState returns f without state x, which no arc may touch; the states
// above x move down by one.
func dropState(t *testing.T, f *fsp.FSP, x fsp.State) *fsp.FSP {
	t.Helper()
	down := func(s fsp.State) fsp.State {
		if s > x {
			return s - 1
		}
		return s
	}
	b := fsp.NewBuilderWith(f.Name(), f.Alphabet().Clone(), f.Vars().Clone())
	b.AddStates(f.NumStates() - 1)
	for s := fsp.State(0); int(s) < f.NumStates(); s++ {
		if s == x {
			continue
		}
		for _, a := range f.Arcs(s) {
			if a.To == x {
				t.Fatalf("state %d has an arc into the dropped state %d", s, x)
			}
			b.Arc(down(s), a.Act, down(a.To))
		}
		for _, id := range f.Ext(s).IDs() {
			b.Extend(down(s), f.Vars().Name(id))
		}
	}
	b.SetStart(down(f.Start()))
	return b.MustBuild()
}

// renumberAround moves every image above x down by one, as dropState
// renumbers the states.
func renumberAround(phi []fsp.State, x fsp.State) []fsp.State {
	out := make([]fsp.State, len(phi))
	for i, s := range phi {
		out[i] = s
		if s > x {
			out[i]--
		}
	}
	return out
}
