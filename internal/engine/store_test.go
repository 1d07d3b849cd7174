package engine

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ccs/internal/fsp"
	"ccs/internal/gen"
	"ccs/internal/lts"
	"ccs/internal/store"
)

// corruptAllEntries truncates every entry file in dir to half its length,
// simulating on-disk damage between two store generations.
func corruptAllEntries(t *testing.T, dir string) {
	t.Helper()
	dirents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range dirents {
		path := filepath.Join(dir, de.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func openTestStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// TestStoreTierMatchesMemory runs the same random query mix through a
// memory-only Checker, a store-backed cold Checker, and a store-backed
// warm Checker (fresh Checker, same directory), and requires identical
// verdicts from all three. The warm run must be answered from the store:
// no writes, only reads (P-hat indexes are derived in memory).
func TestStoreTierMatchesMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var procs []*fsp.FSP
	for i := 0; i < 8; i++ {
		procs = append(procs, gen.Random(rng, 12+rng.Intn(10), 40, 2, 0.4))
	}
	var queries []Query
	for i := range procs {
		for j := range procs {
			for _, rel := range []Relation{Strong, Weak, Trace, Congruence, Simulation} {
				queries = append(queries, Query{P: procs[i], Q: procs[j], Rel: rel})
			}
		}
	}
	ctx := context.Background()
	dir := t.TempDir()

	mem := New()
	cold := NewWithStore(openTestStore(t, dir))
	for _, q := range queries {
		want, err := mem.Check(ctx, q)
		if err != nil {
			t.Fatalf("memory check: %v", err)
		}
		got, err := cold.Check(ctx, q)
		if err != nil {
			t.Fatalf("cold store check: %v", err)
		}
		if got != want {
			t.Fatalf("cold store verdict for %s diverged: got %v want %v", q.Rel, got, want)
		}
	}
	coldStats, ok := cold.StoreStats()
	if !ok || coldStats.Writes == 0 {
		t.Fatalf("cold run spilled nothing: %+v", coldStats)
	}

	// Re-parse nothing: the warm Checker sees the same pointers but has an
	// empty in-memory cache, so every artifact must come off disk.
	warm := NewWithStore(openTestStore(t, dir))
	for _, q := range queries {
		want, err := mem.Check(ctx, q)
		if err != nil {
			t.Fatalf("memory check: %v", err)
		}
		got, err := warm.Check(ctx, q)
		if err != nil {
			t.Fatalf("warm store check: %v", err)
		}
		if got != want {
			t.Fatalf("warm store verdict for %s diverged: got %v want %v", q.Rel, got, want)
		}
	}
	warmStats, _ := warm.StoreStats()
	if warmStats.Hits == 0 {
		t.Fatalf("warm run hit nothing: %+v", warmStats)
	}
	if warmStats.Misses > 0 || warmStats.Writes > 0 {
		t.Fatalf("warm run was not fully warm: %+v", warmStats)
	}
}

// TestStoreTierArtifactIdentity checks that a warm Checker's artifacts are
// structurally identical to freshly derived ones, artifact by artifact.
func TestStoreTierArtifactIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := gen.Random(rng, 25, 80, 3, 0.35)
	dir := t.TempDir()

	cold := NewWithStore(openTestStore(t, dir))
	if _, err := cold.WeakQuotient(p); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.StrongQuotient(p); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.CongruenceQuotient(p); err != nil {
		t.Fatal(err)
	}

	mem := New()
	warm := NewWithStore(openTestStore(t, dir))

	for _, tc := range []struct {
		name string
		get  func(c *Checker) (*fsp.FSP, error)
	}{
		{"strong", func(c *Checker) (*fsp.FSP, error) { return c.StrongQuotient(p) }},
		{"weak", func(c *Checker) (*fsp.FSP, error) { return c.WeakQuotient(p) }},
		{"cong", func(c *Checker) (*fsp.FSP, error) { return c.CongruenceQuotient(p) }},
	} {
		want, err := tc.get(mem)
		if err != nil {
			t.Fatalf("%s (memory): %v", tc.name, err)
		}
		got, err := tc.get(warm)
		if err != nil {
			t.Fatalf("%s (warm): %v", tc.name, err)
		}
		if !fsp.StructuralEqual(want, got) {
			t.Fatalf("%s artifact from store differs from fresh derivation", tc.name)
		}
		if tc.name == "strong" {
			continue
		}
		// P-hat indexes are never spilled: the warm Checker derives them
		// in memory from the decoded quotient.
		wantIdx, err := mem.weakIndex(want)
		if err != nil {
			t.Fatal(err)
		}
		gotIdx, err := warm.weakIndex(got)
		if err != nil {
			t.Fatal(err)
		}
		if !sameCSR(wantIdx, gotIdx) {
			t.Fatalf("%s P-hat index from a stored quotient differs from fresh derivation", tc.name)
		}
	}
	st, _ := warm.StoreStats()
	if st.Misses > 0 || st.Writes > 0 {
		t.Fatalf("warm artifact reads missed or wrote: %+v", st)
	}
}

// sameCSR reports whether two indexes have the same label table and
// forward arrays.
func sameCSR(a, b *lts.Index) bool {
	as, al, at := a.Fwd()
	bs, bl, bt := b.Fwd()
	return slices.Equal(a.LabelNames(), b.LabelNames()) &&
		slices.Equal(as, bs) && slices.Equal(al, bl) && slices.Equal(at, bt)
}

// TestStoreTierSurvivesCorruption corrupts the store directory between two
// Checkers and requires the second to fall back to deriving, with correct
// verdicts.
func TestStoreTierSurvivesCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := gen.Random(rng, 15, 45, 2, 0.4)
	q := gen.Random(rng, 15, 45, 2, 0.4)
	ctx := context.Background()
	dir := t.TempDir()

	cold := NewWithStore(openTestStore(t, dir))
	want, err := cold.Check(ctx, Query{P: p, Q: q, Rel: Weak})
	if err != nil {
		t.Fatal(err)
	}

	corruptAllEntries(t, dir)

	warm := NewWithStore(openTestStore(t, dir))
	got, err := warm.Check(ctx, Query{P: p, Q: q, Rel: Weak})
	if err != nil {
		t.Fatalf("check over corrupt store: %v", err)
	}
	if got != want {
		t.Fatalf("verdict changed over corrupt store: got %v want %v", got, want)
	}
	stats, _ := warm.StoreStats()
	if stats.Misses == 0 {
		t.Fatalf("corrupt entries were not treated as misses: %+v", stats)
	}
}
