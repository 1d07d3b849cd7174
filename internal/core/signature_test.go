package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// observableNames returns the alphabet's observable action names in name
// order.
func observableNames(a *fsp.Alphabet) []string {
	var names []string
	for _, act := range a.Observable() {
		names = append(names, a.Name(act))
	}
	slices.Sort(names)
	return names
}

// reinterned copies f with its states renumbered by perm, its alphabet
// and variable table interned in reverse name order, and more applied.
func reinterned(f *fsp.FSP, perm []int, more func(b *fsp.Builder)) *fsp.FSP {
	acts := observableNames(f.Alphabet())[1:]
	slices.Reverse(acts)
	vars := make([]string, f.Vars().Len())
	for id := range vars {
		vars[len(vars)-1-id] = f.Vars().Name(fsp.VarID(id))
	}
	b := fsp.NewBuilderWith(f.Name()+"/re", fsp.NewAlphabet(acts...), fsp.MustVarTable(vars...))
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
	if more != nil {
		more(b)
	}
	return b.MustBuild()
}

// TestSignatureInvariantUnderRenaming: a permuted copy whose alphabet and
// variable table were interned in another order gets an identical record,
// for raw processes and for all three quotients, and the records then
// decide the pair equivalent unless they leave it open.
func TestSignatureInvariantUnderRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	decided := 0
	for i := 0; i < 60; i++ {
		f := gen.Random(rng, 2+rng.Intn(40), 1+rng.Intn(120), 1+rng.Intn(3), 0.4*rng.Float64())
		if i%3 == 0 {
			f = reinterned(f, rng.Perm(f.NumStates()), func(b *fsp.Builder) {
				for s := 0; s < f.NumStates(); s++ {
					if rng.Intn(3) == 0 {
						b.Extend(fsp.State(s), "y")
					}
				}
			})
		}
		g := reinterned(f, rng.Perm(f.NumStates()), nil)
		quotients := []struct {
			name string
			rule core.RootRule
			of   func(*fsp.FSP) (*fsp.FSP, []fsp.State, error)
		}{
			{"strong", core.SameRootLoop, core.QuotientStrong},
			{"weak", core.NoRootRule, core.QuotientWeak},
			{"cong", core.SameRootCycle, core.QuotientCongruence},
		}
		if sf, sg := core.NewSignature(f), core.NewSignature(g); !core.SameRecord(sf, sg) {
			t.Fatalf("%s: a renamed copy changed the record of the process", f.Name())
		}
		for _, q := range quotients {
			qf, _, err := q.of(f)
			if err != nil {
				t.Fatal(err)
			}
			qg, _, err := q.of(g)
			if err != nil {
				t.Fatal(err)
			}
			sf, sg := core.NewSignature(qf), core.NewSignature(qg)
			if !core.SameRecord(sf, sg) {
				t.Fatalf("%s: a renamed copy changed the record of the %s quotient", f.Name(), q.name)
			}
			eq, d := core.DecideSignatures(sf, sg, q.rule)
			if d == core.Undecided {
				continue
			}
			decided++
			if !eq || d != core.ByIsomorphism {
				t.Fatalf("%s %s: renamed copy decided (%v, %v), want equivalent by isomorphism", f.Name(), q.name, eq, d)
			}
		}
	}
	if decided < 150 {
		t.Fatalf("only %d of 180 quotient pairs decided", decided)
	}
}

// TestSignatureCongruenceRootLoop pins the ≈ᶜ pair of the weakQuotient
// comment: with arcs 0 tau 2, 0 tau 3, 2 tau 0 and ext(2) = {x}, the
// root lies on a tau cycle through another class, so a direct tau of the
// root into its own class, which gives the quotient a root self-loop,
// changes nothing up to ≈ᶜ. The records must decide both variants
// equivalent to the base, though only their quotients carry the loop.
func TestSignatureCongruenceRootLoop(t *testing.T) {
	build := func(name string, more func(b *fsp.Builder)) *fsp.FSP {
		b := fsp.NewBuilder(name)
		b.AddStates(4)
		b.ArcName(0, fsp.TauName, 2)
		b.ArcName(0, fsp.TauName, 3)
		b.ArcName(2, fsp.TauName, 0)
		b.Extend(2, fsp.StandardVar)
		if more != nil {
			more(b)
		}
		return b.MustBuild()
	}
	procs := []*fsp.FSP{
		build("base", nil),
		build("self-loop", func(b *fsp.Builder) { b.ArcName(0, fsp.TauName, 0) }),
		build("twin", func(b *fsp.Builder) {
			twin := b.AddState()
			b.ArcName(0, fsp.TauName, twin)
			b.ArcName(twin, fsp.TauName, 2)
			b.ArcName(twin, fsp.TauName, 3)
		}),
	}
	var sigs []*core.Signature
	for i, p := range procs {
		q, _, err := core.QuotientCongruence(p)
		if err != nil {
			t.Fatal(err)
		}
		if loop := q.HasArc(q.Start(), fsp.Tau, q.Start()); loop != (i > 0) {
			t.Fatalf("%s: quotient root loop = %v, want %v", p.Name(), loop, i > 0)
		}
		sigs = append(sigs, core.NewSignature(q))
	}
	for i := range procs {
		for j := range procs {
			want, err := core.ObservationCongruent(procs[i], procs[j])
			if err != nil {
				t.Fatal(err)
			}
			if !want {
				t.Fatalf("%s ≉ᶜ %s by the one-shot decider", procs[i].Name(), procs[j].Name())
			}
			if eq, d := core.DecideSignatures(sigs[i], sigs[j], core.SameRootCycle); !eq || d != core.ByIsomorphism {
				t.Errorf("%s vs %s: records decided (%v, %v), want equivalent by isomorphism", procs[i].Name(), procs[j].Name(), eq, d)
			}
		}
	}
	// tau.a ≈ a, but a's root lies on no tau cycle, so tau.a ≉ᶜ a: the
	// records agree and the root rule tells the two apart.
	tauA := fsp.NewBuilder("tau.a")
	tauA.AddStates(3)
	tauA.ArcName(0, fsp.TauName, 1)
	tauA.ArcName(1, "a", 2)
	a := fsp.NewBuilder("a")
	a.AddStates(2)
	a.ArcName(0, "a", 1)
	var pair []*core.Signature
	for _, b := range []*fsp.Builder{tauA, a} {
		q, _, err := core.QuotientCongruence(b.MustBuild())
		if err != nil {
			t.Fatal(err)
		}
		pair = append(pair, core.NewSignature(q))
	}
	if eq, d := core.DecideSignatures(pair[0], pair[1], core.SameRootCycle); eq || d != core.BySignature {
		t.Errorf("tau.a vs a under ≈ᶜ: records decided (%v, %v), want inequivalent by signature", eq, d)
	}
	if eq, d := core.DecideSignatures(pair[0], pair[1], core.NoRootRule); !eq || d != core.ByIsomorphism {
		t.Errorf("tau.a vs a under ≈: records decided (%v, %v), want equivalent by isomorphism", eq, d)
	}
}

// TestSignatureChainBeyondCap: a chain needs one round per state to
// separate its states, so a long one hits the round cap and its records
// leave every pair open, equivalent or not.
func TestSignatureChainBeyondCap(t *testing.T) {
	const n = 40
	chain := func(b int) *fsp.FSP {
		bl := fsp.NewBuilder("chain")
		bl.AddStates(n + 1)
		for i := 0; i < n; i++ {
			act := "a"
			if i == b {
				act = "b"
			}
			bl.ArcName(fsp.State(i), act, fsp.State(i+1))
		}
		return bl.MustBuild()
	}
	p := chain(n / 2)
	perm := rand.New(rand.NewSource(1)).Perm(n + 1)
	for _, tc := range []struct {
		q    *fsp.FSP
		want bool
	}{
		{reinterned(p, perm, nil), true},
		{chain(n/2 - 1), false},
	} {
		sp, sq := core.NewSignature(p), core.NewSignature(tc.q)
		if !core.Capped(sp) || !core.Capped(sq) {
			t.Fatalf("a %d-state chain was not capped", n+1)
		}
		if eq, d := core.DecideSignatures(sp, sq, core.SameRootLoop); d != core.Undecided {
			t.Fatalf("capped records decided (%v, %v)", eq, d)
		}
		if got, err := core.StrongEquivalent(p, tc.q); err != nil || got != tc.want {
			t.Fatalf("StrongEquivalent = %v, %v; want %v", got, err, tc.want)
		}
	}
}

// TestSignatureChecksBijection forges records that agree, so only the
// bijection check stands between the records and a verdict: it must
// accept the true pairing of an isomorphic copy and reject a wrong
// pairing, an extra arc, an extra variable and a renamed action.
func TestSignatureChecksBijection(t *testing.T) {
	type arc struct {
		from int
		act  string
		to   int
	}
	arcs := []arc{{0, "a", 1}, {1, "b", 2}, {2, "a", 0}, {2, fsp.TauName, 3}, {3, fsp.TauName, 3}}
	build := func(perm []int, arcs []arc, y int) *fsp.FSP {
		b := fsp.NewBuilder("f")
		b.AddStates(4)
		for _, a := range arcs {
			b.ArcName(fsp.State(perm[a.from]), a.act, fsp.State(perm[a.to]))
		}
		b.Extend(fsp.State(perm[3]), fsp.StandardVar)
		if y >= 0 {
			b.Extend(fsp.State(perm[y]), "y")
		}
		b.SetStart(fsp.State(perm[0]))
		return b.MustBuild()
	}
	sf := core.NewSignature(build([]int{0, 1, 2, 3}, arcs, -1))
	perm := []int{2, 0, 3, 1}
	pi := func(s fsp.State) fsp.State { return fsp.State(perm[s]) }
	swapped := func(s fsp.State) fsp.State { return pi([]fsp.State{1, 0, 2, 3}[s]) }
	renamed := append([]arc{{0, "c", 1}}, arcs[1:]...)
	for _, tc := range []struct {
		name string
		g    *fsp.FSP
		pair func(fsp.State) fsp.State
		want bool
	}{
		{"copy", build(perm, arcs, -1), pi, true},
		{"wrong pairing", build(perm, arcs, -1), swapped, false},
		{"extra arc", build(perm, append([]arc{{1, "a", 3}}, arcs...), -1), pi, false},
		{"extra variable", build(perm, arcs, 0), pi, false},
		{"renamed action", build(perm, renamed, -1), pi, false},
	} {
		forged := core.Forged(sf, core.NewSignature(tc.g), tc.pair)
		if eq, d := core.DecideSignatures(sf, forged, core.SameRootLoop); eq != tc.want || d != core.ByIsomorphism {
			t.Errorf("%s: decided (%v, %v), want (%v, isomorphism)", tc.name, eq, d, tc.want)
		}
	}
}
