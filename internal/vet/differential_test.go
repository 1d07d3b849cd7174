package vet_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ccs/internal/compose"
	"ccs/internal/gen"
	"ccs/internal/vet"
)

// The differential suite pins the soundness contract of dead-sync: a
// flagged channel must really never fire in the flat product. The ground
// truth is a direct BFS over reachable product state vectors via
// Expansion.Succ, checking at every vector whether any two distinct
// components simultaneously enable the channel and its co-name — the
// exact firing condition of the pairwise handshake.

// productStateCap bounds the ground-truth BFS; instances past the cap are
// skipped (the gallery and the random networks stay far below it).
const productStateCap = 1 << 16

// handshakeReachable explores the reachable product and reports whether a
// handshake on the channel (by dense send/receive label ids) is enabled
// anywhere; ok is false when the product exceeded the cap.
func handshakeReachable(e *compose.Expansion, send, recv int32) (fires, ok bool) {
	k := e.K()
	enabled := func(i int, s int32, l int32) bool {
		if l < 0 {
			return false
		}
		for _, arc := range e.Trans[i][s] {
			if arc.Label == l {
				return true
			}
		}
		return false
	}
	key := func(v []int32) string { return fmt.Sprint(v) }

	start := append([]int32(nil), e.Starts...)
	seen := map[string]bool{key(start): true}
	queue := [][]int32{start}
	var batch compose.SuccBatch
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for i := 0; i < k; i++ {
			if !enabled(i, cur[i], send) {
				continue
			}
			for j := 0; j < k; j++ {
				if j != i && enabled(j, cur[j], recv) {
					return true, true
				}
			}
		}
		batch.Reset()
		e.AppendSucc(cur, &batch)
		for j := 0; j < batch.Len(); j++ {
			next := batch.Vec(j)
			kk := key(next)
			if !seen[kk] {
				seen[kk] = true
				queue = append(queue, append([]int32(nil), next...))
			}
		}
		if len(seen) > productStateCap {
			return false, false
		}
	}
	return false, true
}

// checkDeadSyncSound verifies every dead-sync finding on the network
// against the flat product.
func checkDeadSyncSound(t *testing.T, name string, net *compose.Network) {
	t.Helper()
	diags, err := vet.Network(net, nil)
	if err != nil {
		t.Fatalf("%s: vet.Network: %v", name, err)
	}
	e, err := net.Expand()
	if err != nil {
		t.Fatalf("%s: Expand: %v", name, err)
	}
	ids := map[string]int32{}
	for id, n := range e.Labels {
		ids[n] = int32(id)
	}
	lookup := func(n string) int32 {
		if id, okk := ids[n]; okk {
			return id
		}
		return -1
	}
	for _, d := range diags {
		if d.Code != vet.CodeDeadSync {
			continue
		}
		send := lookup(d.Channel)
		recv := lookup(d.Channel + "'")
		fires, ok := handshakeReachable(e, send, recv)
		if !ok {
			t.Logf("%s: product exceeded %d states, skipping channel %q", name, productStateCap, d.Channel)
			continue
		}
		if fires {
			t.Errorf("%s: dead-sync flagged channel %q, but the flat product can fire the handshake", name, d.Channel)
		}
	}
}

// TestDeadSyncDifferentialGallery verifies the gallery exhibits and the
// equivalence gallery's networks.
func TestDeadSyncDifferentialGallery(t *testing.T) {
	for _, entry := range gen.VetGallery() {
		checkDeadSyncSound(t, entry.Name, entry.Net)
	}
	for _, entry := range gen.NetworkGallery() {
		checkDeadSyncSound(t, entry.Name, entry.Net)
	}
}

// TestDeadSyncDifferentialRandom sweeps seeded random networks — the
// relabel/hide combinations there produce genuinely dead channels at a
// good rate, and each finding must survive the product check.
func TestDeadSyncDifferentialRandom(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	flagged := 0
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		net := gen.RandomNetwork(rng)
		diags, err := vet.Network(net, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, d := range diags {
			if d.Code == vet.CodeDeadSync {
				flagged++
			}
		}
		checkDeadSyncSound(t, fmt.Sprintf("seed-%d", seed), net)
	}
	// The sweep is only meaningful if the generator actually produces
	// dead channels; the hide("a")/relabel mix does, reliably.
	if flagged == 0 {
		t.Error("no dead-sync findings across the whole random sweep; the differential is vacuous")
	}
}
