package otf_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"ccs/internal/gen"
	"ccs/internal/obs"
	"ccs/internal/otf"
)

// collectSnapshots is a thread-safe sink for progress callbacks (they
// arrive from the sampler goroutine).
type collectSnapshots struct {
	mu    sync.Mutex
	snaps []obs.OTFSnapshot
}

func (c *collectSnapshots) add(s obs.OTFSnapshot) {
	c.mu.Lock()
	c.snaps = append(c.snaps, s)
	c.mu.Unlock()
}

func (c *collectSnapshots) all() []obs.OTFSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]obs.OTFSnapshot(nil), c.snaps...)
}

// TestProgressSnapshots: a hooked run always delivers exactly one final
// snapshot (even when the game ends inside the first interval), its
// counters are consistent with the Result, and per-tick snapshots are
// monotone in Explored.
func TestProgressSnapshots(t *testing.T) {
	net := gen.TokenRing(8)
	spec := gen.TokenRingSpec()

	sink := &collectSnapshots{}
	ctx := obs.WithOTFProgress(context.Background(), sink.add, time.Millisecond)
	res, err := otf.Check(ctx, net, spec, otf.Weak, otf.Options{Workers: 4})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !res.Equivalent {
		t.Fatalf("token ring not equivalent to its spec")
	}

	snaps := sink.all()
	if len(snaps) == 0 {
		t.Fatalf("no snapshots delivered")
	}
	finals := 0
	last := snaps[len(snaps)-1]
	prev := int64(-1)
	for _, s := range snaps {
		if s.Final {
			finals++
		}
		if s.Explored < prev {
			t.Fatalf("Explored went backwards: %d after %d", s.Explored, prev)
		}
		prev = s.Explored
		if s.Workers != 4 {
			t.Fatalf("snapshot workers = %d, want 4", s.Workers)
		}
	}
	if finals != 1 || !last.Final {
		t.Fatalf("want exactly one final snapshot, last one; finals=%d lastFinal=%v", finals, last.Final)
	}
	if last.Explored != int64(res.Explored) {
		t.Fatalf("final Explored = %d, Result.Explored = %d", last.Explored, res.Explored)
	}
	if last.Steals != int64(res.Steals) {
		t.Fatalf("final Steals = %d, Result.Steals = %d", last.Steals, res.Steals)
	}
	if last.Pairs != int64(res.Pairs) {
		t.Fatalf("final Pairs = %d, Result.Pairs = %d", last.Pairs, res.Pairs)
	}
	if last.ActiveBatches != 0 {
		t.Fatalf("final ActiveBatches = %d, want 0", last.ActiveBatches)
	}
	if len(last.DequeDepths) != 4 {
		t.Fatalf("final DequeDepths = %v, want 4 entries", last.DequeDepths)
	}
	for _, d := range last.DequeDepths {
		if d != 0 {
			t.Fatalf("final deque depths not drained: %v", last.DequeDepths)
		}
	}
}

// TestProgressFromContext: a hook installed with obs.WithOTFProgress — the
// path the CLI -progress flag and the engine use — with no interval runs
// on the default one and still gets the final snapshot of a game that
// ends before the first tick.
func TestProgressFromContext(t *testing.T) {
	net := gen.TokenRing(6)
	spec := gen.TokenRingSpec()

	sink := &collectSnapshots{}
	ctx := obs.WithOTFProgress(context.Background(), sink.add, 0)
	res, err := otf.Check(ctx, net, spec, otf.Weak, otf.Options{Workers: 2})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	snaps := sink.all()
	if len(snaps) == 0 {
		t.Fatalf("context-installed hook never fired")
	}
	if last := snaps[len(snaps)-1]; !last.Final || last.Explored != int64(res.Explored) {
		t.Fatalf("bad final snapshot %+v vs result explored %d", last, res.Explored)
	}
}

// TestNoProgressNoSnapshots just pins that an unhooked run never touches
// a progress path (compile-time it can't, but the nil-guard discipline
// is worth a smoke test with the race detector on).
func TestNoProgressNoSnapshots(t *testing.T) {
	net := gen.TokenRing(5)
	spec := gen.TokenRingSpec()
	if _, err := otf.Check(context.Background(), net, spec, otf.Weak, otf.Options{Workers: 2}); err != nil {
		t.Fatalf("Check: %v", err)
	}
}
