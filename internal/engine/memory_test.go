package engine

import (
	"context"
	"math/rand"
	"runtime"
	"testing"

	"ccs/internal/gen"
)

// retainedPerProcessLimit bounds the heap one Checker keeps per distinct
// process after answering pool-shaped ≈ and ≈ᶜ pairs: the process's
// record, its reduced quotients and their signature records.
const retainedPerProcessLimit = 24 << 10

// TestCacheMemoryPerProcess: one Checker answers 200 pool-shaped ≈ pairs
// and 200 ≈ᶜ pairs (60–240 states, 3 arcs per state, 4 actions, 20–50%
// tau; each base against a renumbered, fluffed copy). After a GC, the
// heap it retains beyond the inputs themselves must stay under
// retainedPerProcessLimit per distinct input process.
func TestCacheMemoryPerProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(1983))
	var pairs []Query
	for _, rel := range []Relation{Weak, Congruence} {
		for i := 0; i < 200; i++ {
			frac := float64(i%20) / 20
			n := 60 + int(frac*180)
			p := gen.Random(rng, n, 3*n, 4, 0.2+0.3*frac)
			pairs = append(pairs, Query{P: p, Q: twinFluffed(rng, permuted(rng, p)), Rel: rel})
		}
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	c := New()
	for _, q := range pairs {
		eq, err := c.Check(context.Background(), q)
		if err != nil || !eq {
			t.Fatalf("%v %s: %v, %v; want equivalent", q.Rel, q.P.Name(), eq, err)
		}
	}
	retained := heap() - before
	runtime.KeepAlive(pairs)
	runtime.KeepAlive(c)
	per := retained / uint64(2*len(pairs))
	t.Logf("%d distinct processes: %.1f KB retained per process", 2*len(pairs), float64(per)/1024)
	// Quotients and their signature records live on their inputs' records.
	if got := c.Processes(); got != 2*len(pairs) {
		t.Errorf("the cache holds %d records for %d distinct inputs", got, 2*len(pairs))
	}
	if per > retainedPerProcessLimit {
		t.Fatalf("the cache retains %d bytes per process, above the %d-byte bound", per, retainedPerProcessLimit)
	}
}
