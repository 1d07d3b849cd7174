package gen

import (
	"context"
	"testing"

	"ccs/internal/compose"
	"ccs/internal/core"
	"ccs/internal/engine"
	"ccs/internal/fsp"
)

// TestBufferLaw is the gallery's headline property, checked both flat and
// through the engine pipeline: n chained one-place buffers are
// observationally equivalent to the n-place counter, and the lossy variant
// is not.
func TestBufferLaw(t *testing.T) {
	for _, entry := range NetworkGallery() {
		flat, err := entry.Net.FSP()
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		got, err := core.WeakEquivalent(flat, entry.Spec)
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		if got != entry.Weak {
			t.Errorf("%s (flat): ≈ = %v, want %v — %s", entry.Name, got, entry.Weak, entry.Description)
		}
		eng, err := engine.New().CheckNetwork(context.Background(), entry.Net, entry.Spec, engine.Weak, 0)
		if err != nil {
			t.Fatalf("%s: %v", entry.Name, err)
		}
		if eng != entry.Weak {
			t.Errorf("%s (engine MTC): ≈ = %v, want %v", entry.Name, eng, entry.Weak)
		}
	}
}

// TestRelayCollapse is E17, the point of minimize-then-compose on the
// tau-rich relay family, in exact counts: at 2–5 stages with churn 3 the
// flat product has 5ⁿ states and the product of the ≈ᶜ-minimized cells
// 2ⁿ (each cell collapses to 2 states). Both routes accept the pipeline
// against the n-place counter and both reject the lossy twin.
func TestRelayCollapse(t *testing.T) {
	ctx := context.Background()
	cellMin, _, err := core.QuotientWeak(BufferCell(3))
	if err != nil {
		t.Fatal(err)
	}
	if cellMin.NumStates() != 2 {
		t.Errorf("BufferCell(3)/≈ has %d states, want 2", cellMin.NumStates())
	}
	flatStates, minStates := 5, 2
	for n := 2; n <= 5; n++ {
		flatStates, minStates = flatStates*5, minStates*2
		spec := CounterSpec(n)
		for _, tc := range []struct {
			net  *compose.Network
			want bool
		}{
			{RelayNetwork(n, 3), true},
			{LossyRelayNetwork(n, 3), false},
		} {
			flat, err := tc.net.FSP()
			if err != nil {
				t.Fatal(err)
			}
			c := engine.New()
			min, err := c.ComposeNetwork(ctx, tc.net, engine.Weak)
			if err != nil {
				t.Fatal(err)
			}
			if tc.want && (flat.NumStates() != flatStates || min.NumStates() != minStates) {
				t.Errorf("%s: flat product %d states, minimized %d; want %d and %d",
					tc.net.Name, flat.NumStates(), min.NumStates(), flatStates, minStates)
			}
			flatEq, err := core.WeakEquivalent(flat, spec)
			if err != nil {
				t.Fatal(err)
			}
			mtcEq, err := c.Check(ctx, engine.Query{P: min, Q: spec, Rel: engine.Weak})
			if err != nil {
				t.Fatal(err)
			}
			if flatEq != tc.want || mtcEq != tc.want {
				t.Errorf("%s ≈ counter-%d: flat %v, minimize-then-compose %v; want %v", tc.net.Name, n, flatEq, mtcEq, tc.want)
			}
		}
	}
}

// TestNondetSpecsFaithful: the nondeterministic spec family is weakly
// equivalent to its deterministic counterparts — the nondeterminism and
// the tau detours are deliberately inessential — while being genuinely
// nondeterministic and tau-bearing (what the direct on-the-fly game
// refuses and the determinized game absorbs).
func TestNondetSpecsFaithful(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		eq, err := core.WeakEquivalent(NondetCounterSpec(n), CounterSpec(n))
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("NondetCounterSpec(%d) ≉ CounterSpec(%d)", n, n)
		}
	}
	eq, err := core.WeakEquivalent(NondetTokenRingSpec(), TokenRingSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("NondetTokenRingSpec ≉ TokenRingSpec")
	}
	for _, spec := range []struct {
		name string
		f    *fsp.FSP
	}{
		{"NondetCounterSpec(3)", NondetCounterSpec(3)},
		{"NondetTokenRingSpec", NondetTokenRingSpec()},
	} {
		tau, nondet := false, false
		for s := 0; s < spec.f.NumStates(); s++ {
			arcs := spec.f.Arcs(fsp.State(s))
			for i, a := range arcs {
				if a.Act == fsp.Tau {
					tau = true
				}
				if i > 0 && arcs[i-1].Act == a.Act {
					nondet = true
				}
			}
		}
		if !tau || !nondet {
			t.Errorf("%s: tau=%v nondet=%v; the family must exercise both defects", spec.name, tau, nondet)
		}
	}
}
