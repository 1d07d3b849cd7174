package engine

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ccs/internal/core"
	"ccs/internal/fsp"
	"ccs/internal/gen"
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
		kind quotientKind
		get  func(c *Checker) (*fsp.FSP, error)
	}{
		{"strong", strongKind, func(c *Checker) (*fsp.FSP, error) { return c.StrongQuotient(p) }},
		{"weak", weakKind, func(c *Checker) (*fsp.FSP, error) { return c.WeakQuotient(p) }},
		{"cong", congKind, func(c *Checker) (*fsp.FSP, error) { return c.CongruenceQuotient(p) }},
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
		// Signature records are never spilled: the warm Checker derives
		// them in memory from the decoded quotient, and the two records
		// pair the quotients off by the identity.
		wantSig, err := mem.signature(mem.art(p), tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		gotSig, err := warm.signature(warm.art(p), tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		rule := core.NoRootRule
		if tc.name == "strong" {
			rule = core.SameRootLoop
		}
		if eq, d := core.DecideSignatures(wantSig, gotSig, rule); !eq || d != core.ByIsomorphism {
			t.Fatalf("%s record from a stored quotient: %v by %v, want an isomorphism", tc.name, eq, d)
		}
	}
	st, _ := warm.StoreStats()
	if st.Misses > 0 || st.Writes > 0 {
		t.Fatalf("warm artifact reads missed or wrote: %+v", st)
	}
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

// denseForm returns the weak closure of a reduced quotient q in quotient
// form — the dense weak-closed quotient older engines derived and stored:
// every weak sigma-derivative as a sigma-arc, every other state reached by
// τ* as a tau arc, and q's root tau self-loop if it has one.
func denseForm(t *testing.T, q *fsp.FSP) *fsp.FSP {
	t.Helper()
	sat, eps, err := fsp.Saturate(q)
	if err != nil {
		t.Fatal(err)
	}
	b := fsp.NewBuilderWith(q.Name(), q.Alphabet().Clone(), q.Vars().Clone())
	b.AddStates(q.NumStates())
	b.SetStart(q.Start())
	for s := fsp.State(0); int(s) < q.NumStates(); s++ {
		for _, a := range sat.Arcs(s) {
			if a.Act != eps {
				b.Arc(s, a.Act, a.To)
			} else if a.To != s {
				b.Arc(s, fsp.Tau, a.To)
			}
		}
		for _, id := range q.Ext(s).IDs() {
			b.Extend(s, q.Vars().Name(id))
		}
	}
	if r := q.Start(); q.HasArc(r, fsp.Tau, r) {
		b.Arc(r, fsp.Tau, r)
	}
	return b.MustBuild()
}

// TestStaleDenseQuotientEntryIsRederived: a store written by an older
// engine holds dense ≈- and ≈ᶜ-quotients under the retired kind bytes 4
// and 7. Such an entry must read as a cold miss, be derived again as the
// reduced quotient and overwritten, and the pair's verdict must be right;
// the next Checker on the directory then hits the rewritten entry.
func TestStaleDenseQuotientEntryIsRederived(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p := gen.Random(rng, 40, 120, 3, 0.4)
	q := twinFluffed(rng, permuted(rng, p))
	ctx := context.Background()
	for _, tc := range []struct {
		kind    store.Kind
		retired byte
		rel     Relation
		get     func(*Checker, *fsp.FSP) (*fsp.FSP, error)
	}{
		{store.KindWeakMin, 4, Weak, (*Checker).WeakQuotient},
		{store.KindCongMin, 7, Congruence, (*Checker).CongruenceQuotient},
	} {
		reduced, err := tc.get(New(), p)
		if err != nil {
			t.Fatal(err)
		}
		dense := denseForm(t, reduced)
		if dense.NumTransitions() <= reduced.NumTransitions() {
			t.Fatalf("%s: dense form has %d arcs, the reduced quotient %d", tc.kind, dense.NumTransitions(), reduced.NumTransitions())
		}
		dir := t.TempDir()
		fp, fp2 := fsp.Fingerprint(p), fsp.Fingerprint2(p)
		openTestStore(t, dir).PutFSP(fp, fp2, tc.kind, dense)
		path := filepath.Join(dir, fmt.Sprintf("%016x.%s", fp, tc.kind))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[6] = tc.retired // the entry header's kind byte
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		c := NewWithStore(openTestStore(t, dir))
		got, err := tc.get(c, p)
		if err != nil {
			t.Fatal(err)
		}
		if !fsp.StructuralEqual(got, reduced) {
			t.Fatalf("%s: the stale entry's process was served", tc.kind)
		}
		if eq, err := c.Check(ctx, Query{P: p, Q: q, Rel: tc.rel}); err != nil || !eq {
			t.Fatalf("%s: %s vs its fluffed copy: %v, %v; want equivalent", tc.kind, p.Name(), eq, err)
		}
		if st, _ := c.StoreStats(); st.Corrupt != 1 || st.Hits != 0 || st.Writes != 2 {
			t.Fatalf("%s: stats %+v; want one corrupt miss, no hit and two writes (p, then q)", tc.kind, st)
		}
		warm := NewWithStore(openTestStore(t, dir))
		if got, err := tc.get(warm, p); err != nil || !fsp.StructuralEqual(got, reduced) {
			t.Fatalf("%s: rewritten entry: %v", tc.kind, err)
		}
		if st, _ := warm.StoreStats(); st.Hits != 1 || st.Misses != 0 {
			t.Fatalf("%s: rewritten entry stats %+v; want one hit", tc.kind, st)
		}
	}
}
