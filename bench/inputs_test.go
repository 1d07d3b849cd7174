package main

import (
	"math/rand"
	"testing"

	"ccs"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

func TestPermutationIsBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 17, 240} {
		seen := make([]bool, n)
		for _, s := range permutation(rng, n) {
			if s < 0 || int(s) >= n || seen[s] {
				t.Fatalf("n=%d: %d repeated or out of range", n, s)
			}
			seen[s] = true
		}
	}
	p := gen.Random(rng, 50, 150, 4, 0.3)
	q := permute(rng, p)
	if q.NumStates() != p.NumStates() || q.NumTransitions() != p.NumTransitions() {
		t.Fatalf("permuted copy has %v, original %v", q, p)
	}
}

func TestMarkerAbsentFromAlphabet(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var procs []*fsp.FSP
	for i := 0; i < 10; i++ {
		procs = append(procs, pairBase(rng, i, 10, pairRelations[i%len(pairRelations)]))
	}
	procs = append(procs, gen.CounterSpec(6), gen.TokenRingSpec(), gen.DecideSpec())
	for _, p := range procs {
		if _, ok := p.Alphabet().Lookup(markerAction); ok {
			t.Fatalf("%s already has the marker action", p.Name())
		}
		q, at := mark(rng, p)
		if !p.Reachable()[at] {
			t.Fatalf("%s: marker on unreachable state %d", p.Name(), at)
		}
		act, ok := q.Alphabet().Lookup(markerAction)
		if !ok || !q.HasArc(at, act, at) {
			t.Fatalf("%s: marked copy lacks the marker loop at %d", p.Name(), at)
		}
	}
}

// TestKnownAnswers checks the constructors' verdicts with the one-shot
// deciders on small processes.
func TestKnownAnswers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rels := map[string]ccs.Relation{"strong": ccs.Strong, "weak": ccs.Weak,
		"congruence": ccs.Congruence, "trace": ccs.Trace, "failure": ccs.Failure}
	for i := 0; i < 40; i++ {
		name := pairRelations[i%len(pairRelations)]
		var p *fsp.FSP
		if name == "failure" {
			p = gen.RandomRestricted(rng, 8+rng.Intn(8), 24, 3)
		} else {
			p = gen.Random(rng, 8+rng.Intn(8), 24, 3, 0.3)
		}
		for v := 0; v < 2; v++ {
			q, want := pairVariant(rng, p, name, v)
			got, err := ccs.Equivalent(p, q, rels[name], 0)
			if err != nil {
				t.Fatalf("%s variant %d: %v", name, v, err)
			}
			if got != want {
				t.Fatalf("%s variant %d: got %v, want %v", name, v, got, want)
			}
		}
	}
}
