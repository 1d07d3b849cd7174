package partition_test

import (
	"math/rand"
	"runtime"
	"testing"

	"ccs/internal/core"
	"ccs/internal/gen"
	"ccs/internal/lts"
	"ccs/internal/partition"
)

// The committed cost of one PaigeTarjanIndex solve of the E16 process,
// measured on Go 1.24 (linux/amd64). A solve that rebuilds its index
// adds about 1.3% allocations but 46% bytes, so both are pinned.
const (
	e16Allocs = 4278
	e16Bytes  = 1669281
	e16Slack  = 0.05
)

// TestPaigeTarjanIndexKernelRowE16 holds the refinement kernel to its
// committed allocations and bytes per solve on E16's largest process
// (4,096 states, 24,576 arcs, 4 actions, 15% tau), given an index built
// once, as the engine caches it. Counts, unlike timings, do not move
// with the host.
func TestPaigeTarjanIndexKernelRowE16(t *testing.T) {
	f := gen.Random(rand.New(rand.NewSource(1)), 4096, 24576, 4, 0.15)
	idx, initial := lts.FromFSP(f), core.ExtInitial(f)
	const runs = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := partition.PaigeTarjanIndex(idx, initial) // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		p = partition.PaigeTarjanIndex(idx, initial)
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%d blocks; %.0f allocations and %.0f B per solve", p.NumBlocks(), allocs, bytes)
	for _, c := range []struct {
		what      string
		got, want float64
	}{
		{"allocations", allocs, e16Allocs},
		{"bytes", bytes, e16Bytes},
	} {
		if c.got > c.want*(1+e16Slack) || c.got < c.want*(1-e16Slack) {
			t.Errorf("%.0f %s per solve, want %.0f within %.0f%%", c.got, c.what, c.want, 100*e16Slack)
		}
	}
}
