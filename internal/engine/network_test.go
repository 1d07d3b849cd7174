package engine

import (
	"context"
	"math/rand"
	"testing"

	"ccs/internal/compose"
	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// TestCheckNetworkAgainstFlat: engine network verdicts must match the
// direct check on the flat product for every supported relation, across
// the random network generator. This is the engine-level half of the
// minimize-then-compose/compose-then-minimize agreement property (the
// core-level half lives in internal/compose).
func TestCheckNetworkAgainstFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ctx := context.Background()
	rels := []Relation{Strong, Weak, Trace, Congruence, Simulation, K, Limited}
	for i := 0; i < 15; i++ {
		net := gen.RandomNetwork(rng)
		flat, err := net.FSP()
		if err != nil {
			t.Fatal(err)
		}
		spec := gen.Random(rng, 2+rng.Intn(4), 5, 3, 0.3)
		c := New()
		for _, rel := range rels {
			want, err := c.Check(ctx, Query{P: flat, Q: spec, Rel: rel, K: 2})
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.CheckNetwork(ctx, net, spec, rel, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("net %d rel %v: CheckNetwork=%v, flat=%v", i, rel, got, want)
			}
		}
	}
}

// TestCheckNetworkComponentReuse: components shared across networks are
// quotiented once — the per-component artifact reuse the pipeline exists
// for. The relay network uses one cell pointer n times, plus the composed
// product and the spec.
func TestCheckNetworkComponentReuse(t *testing.T) {
	c := New()
	net := gen.RelayNetwork(4, 2)
	spec := gen.CounterSpec(4)
	ctx := context.Background()
	eq, err := c.CheckNetwork(ctx, net, spec, Weak, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("relay-4 not ≈ counter-4")
	}
	// Canonical records: the shared cell (its four instances collapse to
	// one record), the composed minimized product and the spec. Quotients
	// live on their processes' records and add none.
	if got := c.Processes(); got != 3 {
		t.Errorf("cache holds %d canonical processes, want 3 (cell, product, spec)", got)
	}
	// A second identical check recomposes the product, but structural
	// interning maps it onto the cached record: no growth.
	if _, err := c.CheckNetwork(ctx, net, spec, Weak, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.Processes(); got != 3 {
		t.Errorf("repeat check grew the cache to %d records", got)
	}
}

// TestCheckNetworkErrors: description errors and malformed components are
// reported, never panicked.
func TestCheckNetworkErrors(t *testing.T) {
	c := New()
	ctx := context.Background()
	spec := gen.CounterSpec(2)
	if _, err := c.CheckNetwork(ctx, &compose.Network{Name: "empty"}, spec, Weak, 0); err == nil {
		t.Error("empty network produced no error")
	}
	bad := compose.New("bad", &fsp.FSP{})
	if _, err := c.CheckNetwork(ctx, bad, spec, Weak, 0); err == nil {
		t.Error("malformed component produced no error")
	}
	if _, err := c.CheckNetwork(ctx, gen.RelayNetwork(2, 1), spec, Relation(99), 0); err == nil {
		t.Error("unknown relation produced no error")
	}
}

// TestMinimizeNetworkPreservesShape: relabelings and the hidden set carry
// over, the input is untouched, and each component is the relation-
// appropriate quotient.
func TestMinimizeNetworkPreservesShape(t *testing.T) {
	c := New()
	net := gen.RelayNetwork(3, 2)
	min, err := c.MinimizeNetwork(context.Background(), net, Weak)
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Components) != len(net.Components) || len(min.Hidden) != len(net.Hidden) {
		t.Fatal("minimized network changed shape")
	}
	for i := range net.Components {
		if net.Components[i].P == min.Components[i].P {
			t.Errorf("component %d was not replaced by its quotient", i)
		}
		if min.Components[i].Relabel["in"] != net.Components[i].Relabel["in"] {
			t.Errorf("component %d lost its relabeling", i)
		}
		want, _, err := core.QuotientCongruence(net.Components[i].P)
		if err != nil {
			t.Fatal(err)
		}
		if !fsp.StructuralEqual(min.Components[i].P, want) {
			t.Errorf("component %d is not the ≈ᶜ-quotient", i)
		}
	}
	// Strong relations use the finer ~-quotient.
	minStrong, err := c.MinimizeNetwork(context.Background(), net, Strong)
	if err != nil {
		t.Fatal(err)
	}
	cell := net.Components[0].P
	strongQ, err := c.StrongQuotient(cell)
	if err != nil {
		t.Fatal(err)
	}
	if minStrong.Components[0].P != strongQ {
		t.Error("Strong minimization did not use the cached ~-quotient")
	}
}
