package engine

import (
	"context"
	"strings"
	"testing"

	"ccs/internal/gen"
)

// TestProtocolGalleryRoutes runs the distributed-protocols gallery — the
// sync-vector workloads — through both engine pipelines: CheckNetwork
// (minimize-then-compose) and CheckNetworkOTFInfo (the on-the-fly game)
// must agree with the gallery verdict on every entry, the deterministic
// specs must take the direct otf route and the nondeterministic observers
// the determinized one, and no entry may silently fall back to MTC. This
// is the engine-level otf-vs-MTC agreement differential for vector
// composition, and it exercises MinimizeNetwork's sync-table copy: were
// the table dropped, the quotiented quorum could never rendezvous and
// every positive entry would flip.
//
// The gallery is joined by E23's starved quorum, bq-swarm-12-4-overfaulty:
// 8 honest of 12 replicas miss the 9-way decide rendezvous, and 6 gossip
// tokens spread MTC's product over all 924 token placements, while the
// game refutes the root within e23MaxPairs pairs.
func TestProtocolGalleryRoutes(t *testing.T) {
	const (
		e23MaxPairs      = 8
		e23StarvedStates = 924
	)
	ctx := context.Background()
	starved := gen.NetworkGalleryEntry{
		Name: "bq-swarm-12-4-overfaulty",
		Net:  gen.ByzantineQuorumSwarm(12, 4, 4, 6),
		Spec: gen.DecideSpec(),
		Weak: false,
	}
	for _, e := range append(gen.ProtocolGallery(), starved) {
		c := New()
		mtc, err := c.CheckNetwork(ctx, e.Net, e.Spec, Weak, 0)
		if err != nil {
			t.Fatalf("%s mtc: %v", e.Name, err)
		}
		if mtc != e.Weak {
			t.Errorf("%s: minimize-then-compose says %v, want %v", e.Name, mtc, e.Weak)
		}
		otfEq, info, err := c.CheckNetworkOTFInfo(ctx, e.Net, e.Spec, Weak, 0)
		if err != nil {
			t.Fatalf("%s otf: %v", e.Name, err)
		}
		if e.Name == starved.Name {
			min, err := c.ComposeNetwork(ctx, e.Net, Weak)
			if err != nil {
				t.Fatal(err)
			}
			if info.Pairs > e23MaxPairs || min.NumStates() != e23StarvedStates {
				t.Errorf("%s: the game visited %d pairs (want <= %d) against an MTC product of %d states (want %d)",
					e.Name, info.Pairs, e23MaxPairs, min.NumStates(), e23StarvedStates)
			}
		}
		if otfEq != e.Weak {
			t.Errorf("%s: on-the-fly says %v, want %v (route %s, fallback %q)",
				e.Name, otfEq, e.Weak, info.Route, info.Fallback)
		}
		wantRoute := RouteOTF
		if strings.HasSuffix(e.Name, "-nondet-spec") {
			wantRoute = RouteOTFDeterminized
		}
		if info.Route != wantRoute {
			t.Errorf("%s: route %s (fallback %q), want %s", e.Name, info.Route, info.Fallback, wantRoute)
		}
		if !e.Weak && info.CounterexampleReason == "" {
			t.Errorf("%s: negative verdict without a counterexample", e.Name)
		}
	}
}

// TestMinimizeNetworkKeepsSync: the minimized copy must carry the
// synchronization table — dropping it would silently strip every
// rendezvous from the quotiented network.
func TestMinimizeNetworkKeepsSync(t *testing.T) {
	c := New()
	net := gen.ByzantineQuorum(4, 1, 1)
	min, err := c.MinimizeNetwork(context.Background(), net, Weak)
	if err != nil {
		t.Fatal(err)
	}
	if len(min.Sync) != len(net.Sync) {
		t.Fatalf("minimized network has %d sync rules, want %d", len(min.Sync), len(net.Sync))
	}
	for i, r := range min.Sync {
		if r.String() != net.Sync[i].String() {
			t.Errorf("rule %d changed: %s != %s", i, r, net.Sync[i])
		}
	}
}
