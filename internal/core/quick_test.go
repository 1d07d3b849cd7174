package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ccs/internal/fsp"
	"ccs/internal/partition"
)

// genProc generates random general FSPs for equivalence properties.
type genProc struct{ f *fsp.FSP }

// Generate implements quick.Generator.
func (genProc) Generate(rng *rand.Rand, size int) reflect.Value {
	n := 1 + rng.Intn(7)
	b := fsp.NewBuilder("q")
	b.AddStates(n)
	b.SetStart(fsp.State(rng.Intn(n)))
	names := []string{"a", "b", fsp.TauName}
	arcs := rng.Intn(3 * n)
	for i := 0; i < arcs; i++ {
		b.ArcName(fsp.State(rng.Intn(n)), names[rng.Intn(len(names))], fsp.State(rng.Intn(n)))
	}
	for s := 0; s < n; s++ {
		if rng.Intn(2) == 0 {
			b.Accept(fsp.State(s))
		}
	}
	return reflect.ValueOf(genProc{f: b.MustBuild()})
}

var quickCfg = &quick.Config{MaxCount: 120}

// refines reports whether every block of p lies inside a block of q.
func refines(p, q *partition.Partition) bool {
	in := map[int32]int32{}
	for x := int32(0); int(x) < p.Len(); x++ {
		if b, ok := in[p.Block(x)]; ok && b != q.Block(x) {
			return false
		}
		in[p.Block(x)] = q.Block(x)
	}
	return true
}

// Property: strong equivalence refines weak equivalence (every strong
// class sits inside a weak class) — the ≈ ⊆ ~ ... direction of Table II,
// i.e. ~ ⊆ ≈ as relations.
func TestQuickStrongRefinesWeak(t *testing.T) {
	prop := func(g genProc) bool {
		f := g.f
		strong := StrongPartition(f)
		weak, err := WeakPartition(f)
		if err != nil {
			return false
		}
		return refines(strong, weak)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: the ≃_k ladder matches RefineSteps semantics: ≃_{k+1} refines
// ≃_k, and the fixed point equals the weak partition (Prop 2.2.1c).
func TestQuickLimitedLadderConvergesToWeak(t *testing.T) {
	prop := func(g genProc) bool {
		f := g.f
		weak, err := WeakPartition(f)
		if err != nil {
			return false
		}
		prev, _, err := LimitedPartition(f, 0)
		if err != nil {
			return false
		}
		for k := 1; k <= f.NumStates()+1; k++ {
			cur, _, err := LimitedPartition(f, k)
			if err != nil {
				return false
			}
			if !refines(cur, prev) {
				return false
			}
			prev = cur
		}
		return prev.Equal(weak)
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: quotients are equivalent to the original and idempotent
// (quotienting a quotient changes nothing).
func TestQuickQuotientStrong(t *testing.T) {
	prop := func(g genProc) bool {
		f := g.f
		q, mapping, err := QuotientStrong(f)
		if err != nil {
			return false
		}
		if len(mapping) != f.NumStates() {
			return false
		}
		eq, err := StrongEquivalent(f, q)
		if err != nil || !eq {
			return false
		}
		q2, _, err := QuotientStrong(q)
		if err != nil {
			return false
		}
		return q2.NumStates() == q.NumStates()
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: the weak quotient is observationally equivalent to the
// original and no larger than the weak class count.
func TestQuickQuotientWeak(t *testing.T) {
	prop := func(g genProc) bool {
		f := g.f
		weak, err := WeakPartition(f)
		if err != nil {
			return false
		}
		q, _, err := QuotientWeak(f)
		if err != nil {
			return false
		}
		if q.NumStates() != weak.NumBlocks() {
			return false
		}
		eq, err := WeakEquivalent(f, q)
		return err == nil && eq
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// renumber copies f with each state s renamed perm[s].
func renumber(f *fsp.FSP, perm []fsp.State) *fsp.FSP {
	b := fsp.NewBuilderWith(f.Name(), f.Alphabet().Clone(), f.Vars().Clone())
	b.AddStates(f.NumStates())
	b.SetStart(perm[f.Start()])
	for s := 0; s < f.NumStates(); s++ {
		for _, a := range f.Arcs(fsp.State(s)) {
			b.Arc(perm[s], a.Act, perm[a.To])
		}
		for _, id := range f.Ext(fsp.State(s)).IDs() {
			b.Extend(perm[s], f.Vars().Name(id))
		}
	}
	return b.MustBuild()
}

// Property: equivalence of start states is invariant under state
// renumbering of either operand.
func TestQuickRenumberInvariance(t *testing.T) {
	prop := func(a, b genProc, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		perm := make([]fsp.State, b.f.NumStates())
		for i, v := range rng.Perm(b.f.NumStates()) {
			perm[i] = fsp.State(v)
		}
		rb := renumber(b.f, perm)
		s1, err := StrongEquivalent(a.f, b.f)
		if err != nil {
			return false
		}
		s2, err := StrongEquivalent(a.f, rb)
		if err != nil {
			return false
		}
		w1, err := WeakEquivalent(a.f, b.f)
		if err != nil {
			return false
		}
		w2, err := WeakEquivalent(a.f, rb)
		if err != nil {
			return false
		}
		return s1 == s2 && w1 == w2
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// Property: equivalence is symmetric and reflexive at the facade level.
func TestQuickEquivalenceRelationLaws(t *testing.T) {
	prop := func(a, b genProc) bool {
		refl, err := StrongEquivalent(a.f, a.f)
		if err != nil || !refl {
			return false
		}
		ab, err := StrongEquivalent(a.f, b.f)
		if err != nil {
			return false
		}
		ba, err := StrongEquivalent(b.f, a.f)
		if err != nil {
			return false
		}
		wab, err := WeakEquivalent(a.f, b.f)
		if err != nil {
			return false
		}
		wba, err := WeakEquivalent(b.f, a.f)
		if err != nil {
			return false
		}
		return ab == ba && wab == wba
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}
