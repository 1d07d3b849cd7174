package otf

import (
	"testing"

	"ccs/internal/compose"
	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// TestProtocolGallery plays the game over the distributed-protocols
// gallery — the sync-vector workloads — through checkBoth, so every entry
// is a single-vs-multi-worker and otf-vs-flat differential too. The
// expected verdicts are themselves differentially pinned to the flat
// decider in internal/gen. The nondet-spec entries must
// take the determinized route, the rest the direct one, and every
// negative must carry a counterexample.
func TestProtocolGallery(t *testing.T) {
	for _, e := range gen.ProtocolGallery() {
		res := checkBoth(t, e.Net, e.Spec, Weak)
		if res.Equivalent != e.Weak {
			t.Errorf("%s: on-the-fly says %v, want %v (counterexample: %v)",
				e.Name, res.Equivalent, e.Weak, res.Counterexample)
			continue
		}
		wantDet := Eligible(e.Spec, Weak) != nil
		if res.Determinized != wantDet {
			t.Errorf("%s: determinized=%v, want %v", e.Name, res.Determinized, wantDet)
		}
		if !e.Weak && (res.Counterexample == nil || res.Counterexample.Reason == "") {
			t.Errorf("%s: inequivalent verdict without a counterexample", e.Name)
		}
	}
}

// TestProtocolGalleryAgainstFlat is the vector-mode otf-vs-flat
// differential: on every gallery entry the game's verdict must match the
// saturate-and-partition decider run on the materialized product — the
// same oracle the MTC pipeline bottoms out in.
func TestProtocolGalleryAgainstFlat(t *testing.T) {
	for _, e := range gen.ProtocolGallery() {
		flat, err := e.Net.FSP()
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.WeakEquivalent(flat, e.Spec)
		if err != nil {
			t.Fatal(err)
		}
		res := checkBoth(t, e.Net, e.Spec, Weak)
		if res.Equivalent != want {
			t.Errorf("%s: otf=%v flat=%v", e.Name, res.Equivalent, want)
		}
	}
}

// TestVectorRootCondition: a rendezvous with a tau result that fires at
// the root is a root tau like any other — ≈ accepts the stable spec, the
// ≈ᶜ root condition refuses it. This is the vector analogue of
// TestCongruenceRootCondition.
func TestVectorRootCondition(t *testing.T) {
	// Two components both offering "a" at the start; the rendezvous
	// (a, a) -> tau fires once, then both sides work forever.
	part := func() *fsp.FSP {
		b := fsp.NewBuilder("half")
		b.AddStates(2)
		b.ArcName(0, "a", 1)
		b.ArcName(1, "work", 1)
		b.Accept(0).Accept(1)
		return b.MustBuild()
	}
	net := compose.New("joint-tau", part(), part()).
		AddSync("tau", "a", "a").Hide("a", "work")
	spec := func() *fsp.FSP {
		b := fsp.NewBuilder("silent")
		b.AddStates(1)
		b.Accept(0)
		return b.MustBuild()
	}()
	// Everything is internal: weakly the network is silent, but the root
	// rendezvous tau breaks ≈ᶜ against the deadlocked spec.
	if res := checkBoth(t, net, spec, Weak); !res.Equivalent {
		t.Errorf("joint-tau ≉ silent spec: %v", res.Counterexample)
	}
	if res := checkBoth(t, net, spec, Congruence); res.Equivalent {
		t.Error("joint-tau ≈ᶜ silent spec accepted; the root condition missed the vector tau")
	}
}

// TestVectorEarlyExit: on the starved quorum (6 honest replicas against a
// 2f+1 = 7 rendezvous) the mismatch is at the root — the spec demands
// "decide", the network can never assemble it — so the game must stop
// after a vanishing fraction of the product.
func TestVectorEarlyExit(t *testing.T) {
	net := gen.ByzantineQuorum(8, 3, 2)
	idx, _, err := net.Index()
	if err != nil {
		t.Fatal(err)
	}
	res := checkBoth(t, net, gen.DecideSpec(), Weak)
	if res.Equivalent {
		t.Fatal("starved quorum accepted")
	}
	if res.Pairs*10 > idx.N() {
		t.Errorf("game interned %d pairs of a %d-state product — no early exit", res.Pairs, idx.N())
	}
}
