package fsp

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genFSP is the testing/quick generator for random FSPs: it implements
// quick.Generator via a wrapper type so properties can take FSPs directly.
type genFSP struct{ f *FSP }

// Generate implements quick.Generator.
func (genFSP) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 1 + rng.Intn(max(2, size))
	b := NewBuilder("q")
	b.AddStates(n)
	b.SetStart(State(rng.Intn(n)))
	names := []string{"a", "b", TauName}
	arcs := rng.Intn(3 * n)
	for i := 0; i < arcs; i++ {
		b.ArcName(State(rng.Intn(n)), names[rng.Intn(len(names))], State(rng.Intn(n)))
	}
	for s := 0; s < n; s++ {
		if rng.Intn(2) == 0 {
			b.Accept(State(s))
		}
		if rng.Intn(8) == 0 {
			b.Extend(State(s), "y")
		}
	}
	return reflect.ValueOf(genFSP{f: b.MustBuild()})
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

var quickCfg = &quick.Config{MaxCount: 150}

// Property: Format/Parse round-trips preserve the process exactly (shape,
// start, extensions, transition relation).
func TestQuickIORoundTrip(t *testing.T) {
	prop := func(g genFSP) bool {
		f := g.f
		r, err := ParseString(FormatString(f))
		if err != nil {
			return false
		}
		if r.NumStates() != f.NumStates() || r.NumTransitions() != f.NumTransitions() {
			return false
		}
		if r.Start() != f.Start() {
			return false
		}
		for s := 0; s < f.NumStates(); s++ {
			if r.Ext(State(s)).Format(r.Vars()) != f.Ext(State(s)).Format(f.Vars()) {
				return false
			}
		}
		for _, tr := range f.Transitions() {
			name := f.Alphabet().Name(tr.Act)
			act, ok := r.Alphabet().Lookup(name)
			if !ok || !r.HasArc(tr.From, act, tr.To) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: the tau-closure is reflexive, transitive, and monotone under
// set expansion.
func TestQuickTauClosureIsClosure(t *testing.T) {
	prop := func(g genFSP) bool {
		f := g.f
		clo := TauClosure(f)
		for s := 0; s < f.NumStates(); s++ {
			set := clo.Of(State(s))
			// Reflexive.
			if !containsState(set, State(s)) {
				return false
			}
			// Transitive: closure of any member is within the closure.
			for _, t2 := range set {
				for _, t3 := range clo.Of(t2) {
					if !containsState(set, t3) {
						return false
					}
				}
			}
			// Sorted.
			for i := 1; i < len(set); i++ {
				if set[i-1] >= set[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: saturation produces an observable FSP over Sigma ∪ {ε} with
// the same states and extensions, whose sigma-arcs agree with WeakDest.
func TestQuickSaturationAgreesWithWeakDest(t *testing.T) {
	prop := func(g genFSP) bool {
		f := g.f
		sat, _, err := Saturate(f)
		if err != nil {
			return false
		}
		if sat.NumStates() != f.NumStates() {
			return false
		}
		if !Classify(sat).Observable {
			return false
		}
		clo := TauClosure(f)
		for s := 0; s < f.NumStates(); s++ {
			if sat.Ext(State(s)) != f.Ext(State(s)) {
				return false
			}
			for _, sigma := range f.Alphabet().Observable() {
				want := WeakDest(f, clo, State(s), sigma)
				got := sat.Dest(State(s), sigma)
				if len(want) != len(got) {
					return false
				}
				for i := range want {
					if want[i] != got[i] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: Renumber by a random permutation preserves the classifier
// outcome and transition count; renumbering twice by inverse permutations
// is the identity.
func TestQuickRenumberInvariance(t *testing.T) {
	prop := func(g genFSP, seed int64) bool {
		f := g.f
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(f.NumStates())
		p := make([]State, len(perm))
		inv := make([]State, len(perm))
		for i, v := range perm {
			p[i] = State(v)
			inv[v] = State(i)
		}
		r, err := Renumber(f, p)
		if err != nil {
			return false
		}
		if Classify(r) != Classify(f) {
			return false
		}
		if r.NumTransitions() != f.NumTransitions() {
			return false
		}
		back, err := Renumber(r, inv)
		if err != nil {
			return false
		}
		return FormatString(back) == FormatString(f)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: DisjointUnion preserves both operands' local structure.
func TestQuickDisjointUnion(t *testing.T) {
	prop := func(a, b genFSP) bool {
		u, off, err := DisjointUnion(a.f, b.f)
		if err != nil {
			return false
		}
		if u.NumStates() != a.f.NumStates()+b.f.NumStates() {
			return false
		}
		if u.NumTransitions() != a.f.NumTransitions()+b.f.NumTransitions() {
			return false
		}
		// No cross arcs.
		for _, tr := range u.Transitions() {
			aSide := tr.From < off
			bSide := tr.To < off
			if aSide != bSide {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: VarSet operations behave as sets.
func TestQuickVarSetAlgebra(t *testing.T) {
	prop := func(xs, ys []uint8) bool {
		var a, b VarSet
		for _, x := range xs {
			a = a.With(VarID(x % MaxVars))
		}
		for _, y := range ys {
			b = b.Union(EmptyVars.With(VarID(y % MaxVars)))
		}
		un := a.Union(b)
		for _, id := range a.IDs() {
			if !un.Has(id) {
				return false
			}
		}
		for _, id := range b.IDs() {
			if !un.Has(id) {
				return false
			}
		}
		if un.Len() > a.Len()+b.Len() {
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

func containsState(set []State, s State) bool {
	for _, x := range set {
		if x == s {
			return true
		}
	}
	return false
}

// Union returns the union of the two sets.
func (s VarSet) Union(u VarSet) VarSet { return s | u }
