package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ccs/internal/fsp"
)

// fixture is a small process exercising every feature the codec carries:
// a named process with tau arcs, several observable actions, an extension
// variable, and a non-zero start state.
const fixture = `
fsp Fixture
alphabet a b c
vars x
states 4
start 1
ext 3 x
arc 0 a 1
arc 1 tau 2
arc 1 b 0
arc 2 c 3
arc 3 a 3
`

func mustParse(t *testing.T, text string) *fsp.FSP {
	t.Helper()
	f, err := fsp.ParseString(text)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	return f
}

func openStore(t *testing.T, dir string, cap int64) *Store {
	t.Helper()
	s, err := Open(dir, cap)
	if err != nil {
		t.Fatalf("Open(%q): %v", dir, err)
	}
	return s
}

// TestRoundTrip stores one artifact of every kind, reopens the directory
// in a fresh Store (so nothing is served from in-process state), and
// checks each artifact comes back equal.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	f := mustParse(t, fixture)
	fp, v2 := fsp.Fingerprint(f), fsp.Fingerprint2(f)

	s := openStore(t, dir, 0)
	s.PutFSP(fp, v2, KindStrongMin, f)
	s.PutFSP(fp, v2, KindWeakMin, f)
	s.PutFSP(fp, v2, KindCongMin, f)
	if st := s.Stats(); st.Writes != 3 || st.Entries != 3 {
		t.Fatalf("after 3 puts: %+v", st)
	}

	s = openStore(t, dir, 0)
	got, ok := s.GetFSP(fp, v2, KindStrongMin)
	if !ok || !fsp.StructuralEqual(f, got) {
		t.Fatalf("FSP round trip: ok=%v equal=%v", ok, ok && fsp.StructuralEqual(f, got))
	}
	if got.Name() != f.Name() {
		t.Fatalf("FSP name round trip: got %q want %q", got.Name(), f.Name())
	}
	for _, kind := range []Kind{KindWeakMin, KindCongMin} {
		if _, ok := s.GetFSP(fp, v2, kind); !ok {
			t.Fatalf("%s kind lost", kind)
		}
	}
	if st := s.Stats(); st.Hits != 3 || st.Misses != 0 {
		t.Fatalf("after 3 warm gets: %+v", st)
	}
}

func TestMissCounts(t *testing.T) {
	s := openStore(t, t.TempDir(), 0)
	if _, ok := s.GetFSP(1, 2, KindWeakMin); ok {
		t.Fatalf("hit on empty store")
	}
	if _, ok := s.GetFSP(1, 2, KindStrongMin); ok {
		t.Fatalf("hit on empty store")
	}
	if st := s.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("stats after cold gets: %+v", st)
	}
}

// TestCorruptEntryIsColdMiss flips one payload byte of each stored entry
// and verifies the store treats every one as a miss, deletes the file, and
// never panics or serves a wrong artifact.
func TestCorruptEntryIsColdMiss(t *testing.T) {
	dir := t.TempDir()
	f := mustParse(t, fixture)
	fp, v2 := fsp.Fingerprint(f), fsp.Fingerprint2(f)

	s := openStore(t, dir, 0)
	s.PutFSP(fp, v2, KindStrongMin, f)
	name := entryName(fp, KindStrongMin)
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every byte position in turn, checksum included.
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s := openStore(t, dir, 0)
		if got, ok := s.GetFSP(fp, v2, KindStrongMin); ok {
			// A flip may leave the entry readable only if it decodes to
			// the same process (it cannot: the checksum covers the
			// payload and the header fields are all load-bearing).
			t.Fatalf("byte %d: corrupt entry served (equal=%v)", i, fsp.StructuralEqual(f, got))
		}
		if st := s.Stats(); st.Misses != 1 {
			t.Fatalf("byte %d: stats %+v", i, st)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("byte %d: corrupt entry not deleted", i)
		}
	}
}

// TestTruncatedEntryIsColdMiss simulates a torn write that somehow reached
// the real name (e.g. filesystem damage): every prefix of a valid entry
// must read as a miss.
func TestTruncatedEntryIsColdMiss(t *testing.T) {
	dir := t.TempDir()
	f := mustParse(t, fixture)
	fp, v2 := fsp.Fingerprint(f), fsp.Fingerprint2(f)

	s := openStore(t, dir, 0)
	s.PutFSP(fp, v2, KindWeakMin, f)
	path := filepath.Join(dir, entryName(fp, KindWeakMin))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(data); n++ {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		s := openStore(t, dir, 0)
		if _, ok := s.GetFSP(fp, v2, KindWeakMin); ok {
			t.Fatalf("truncation to %d bytes served an artifact", n)
		}
	}
}

// TestCollisionGuard stores an artifact under process P's fingerprint and
// asks for it with a different verify fingerprint, as would happen if a
// distinct process Q collided with P on the 64-bit key. The second hash
// must reject the entry.
func TestCollisionGuard(t *testing.T) {
	dir := t.TempDir()
	f := mustParse(t, fixture)
	fp, v2 := fsp.Fingerprint(f), fsp.Fingerprint2(f)

	s := openStore(t, dir, 0)
	s.PutFSP(fp, v2, KindStrongMin, f)
	if _, ok := s.GetFSP(fp, v2+1, KindStrongMin); ok {
		t.Fatalf("collision guard did not reject mismatched verify fingerprint")
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Misses != 1 {
		t.Fatalf("collision stats: %+v", st)
	}
}

// TestKindConfusion renames an entry to another kind's name; the kind byte
// in the header must reject it.
func TestKindConfusion(t *testing.T) {
	dir := t.TempDir()
	f := mustParse(t, fixture)
	fp, v2 := fsp.Fingerprint(f), fsp.Fingerprint2(f)

	s := openStore(t, dir, 0)
	s.PutFSP(fp, v2, KindStrongMin, f)
	if err := os.Rename(
		filepath.Join(dir, entryName(fp, KindStrongMin)),
		filepath.Join(dir, entryName(fp, KindWeakMin)),
	); err != nil {
		t.Fatal(err)
	}
	s = openStore(t, dir, 0)
	if _, ok := s.GetFSP(fp, v2, KindWeakMin); ok {
		t.Fatalf("entry renamed across kinds was served")
	}
}

// TestStaleCongMinIsColdMiss pins the codec-version bumps of the two
// ≈-family kinds: a store directory written by an older engine holds
// KindCongMin entries under the retired kind bytes 5 (fresh-root-shaped
// quotients) and 7 (dense weak-closed ones) and KindWeakMin entries under
// 4 (dense) — shapes the current engine must never decode. Each entry is
// forged by patching the kind byte of a freshly written entry (the payload
// CRC stays valid, exactly like a genuine stale file); the read must be a
// corrupt-counted cold miss and the file must be deleted.
func TestStaleCongMinIsColdMiss(t *testing.T) {
	f := mustParse(t, fixture)
	fp, v2 := fsp.Fingerprint(f), fsp.Fingerprint2(f)
	if kindByte[KindWeakMin] != 8 || kindByte[KindCongMin] != 9 {
		t.Fatalf("kind byte layout changed: %v", kindByte)
	}
	for _, tc := range []struct {
		kind    Kind
		retired byte
	}{{KindCongMin, 5}, {KindCongMin, 7}, {KindWeakMin, 4}} {
		dir := t.TempDir()
		s := openStore(t, dir, 0)
		s.PutFSP(fp, v2, tc.kind, f)
		path := filepath.Join(dir, entryName(fp, tc.kind))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if data[6] != kindByte[tc.kind] {
			t.Fatalf("%s: header kind byte %d, table %d", tc.kind, data[6], kindByte[tc.kind])
		}
		data[6] = tc.retired
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s = openStore(t, dir, 0)
		if _, ok := s.GetFSP(fp, v2, tc.kind); ok {
			t.Fatalf("stale %s entry under retired byte %d was served", tc.kind, tc.retired)
		}
		if st := s.Stats(); st.Misses != 1 || st.Corrupt != 1 {
			t.Fatalf("stale %s entry under byte %d: stats %+v", tc.kind, tc.retired, st)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("stale %s entry under byte %d not deleted after rejection", tc.kind, tc.retired)
		}
	}
}

// TestEviction fills a tiny store past its cap and checks the
// least-recently-used entries fall out, on Put and on Open.
func TestEviction(t *testing.T) {
	dir := t.TempDir()
	f := mustParse(t, fixture)
	v2 := fsp.Fingerprint2(f)
	one := int64(len(encodeFSP(f)) + headerLen)

	s := openStore(t, dir, 3*one)
	for fp := uint64(1); fp <= 4; fp++ {
		s.PutFSP(fp, v2, KindStrongMin, f)
	}
	st := s.Stats()
	if st.Entries != 3 || st.Evictions != 1 || st.Bytes != 3*one {
		t.Fatalf("after overflow: %+v", st)
	}
	if _, ok := s.GetFSP(1, v2, KindStrongMin); ok {
		t.Fatalf("oldest entry survived eviction")
	}
	// Touch entry 2 so entry 3 is now least recently used, then overflow.
	if _, ok := s.GetFSP(2, v2, KindStrongMin); !ok {
		t.Fatalf("entry 2 missing")
	}
	s.PutFSP(5, v2, KindStrongMin, f)
	if _, ok := s.GetFSP(3, v2, KindStrongMin); ok {
		t.Fatalf("LRU order ignored: entry 3 should have been evicted")
	}
	if _, ok := s.GetFSP(2, v2, KindStrongMin); !ok {
		t.Fatalf("recently used entry 2 evicted")
	}

	// Reopening with a smaller cap trims the inherited directory.
	s = openStore(t, dir, one)
	if st := s.Stats(); st.Entries != 1 || st.Bytes > one {
		t.Fatalf("open under smaller cap: %+v", st)
	}
}

// TestOversizedEntrySkipped: an artifact larger than the whole cache is
// never written.
func TestOversizedEntrySkipped(t *testing.T) {
	dir := t.TempDir()
	f := mustParse(t, fixture)
	s := openStore(t, dir, 8)
	s.PutFSP(fsp.Fingerprint(f), fsp.Fingerprint2(f), KindStrongMin, f)
	if st := s.Stats(); st.Entries != 0 || st.Writes != 0 {
		t.Fatalf("oversized entry stored: %+v", st)
	}
}

// TestOpenCleansTempFiles: leftovers from a writer killed mid-Put are
// removed at Open and never adopted as entries.
func TestOpenCleansTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, tmpPrefix+"123456")
	if err := os.WriteFile(tmp, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	junk := filepath.Join(dir, "README")
	if err := os.WriteFile(junk, []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openStore(t, dir, 0)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived Open")
	}
	if _, err := os.Stat(junk); err != nil {
		t.Fatalf("non-entry file was touched: %v", err)
	}
	if st := s.Stats(); st.Entries != 0 {
		t.Fatalf("junk adopted as entries: %+v", st)
	}
}

// TestConcurrentAccess hammers one store from many goroutines mixing puts,
// hits, misses and corruption-triggered discards; run with -race.
func TestConcurrentAccess(t *testing.T) {
	dir := t.TempDir()
	f := mustParse(t, fixture)
	v2 := fsp.Fingerprint2(f)
	one := int64(len(encodeFSP(f)) + headerLen)
	s := openStore(t, dir, 8*one)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				fp := uint64(i % 16)
				s.PutFSP(fp, v2, KindStrongMin, f)
				if got, ok := s.GetFSP(fp, v2, KindStrongMin); ok && !fsp.StructuralEqual(f, got) {
					t.Errorf("wrong artifact served")
					return
				}
				s.GetFSP(fp, v2+uint64(g%2), KindStrongMin) // half are guard misses
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Entries > 8 || st.Bytes > 8*one {
		t.Fatalf("cap exceeded: %+v", st)
	}
}

// TestEntryNameShape pins the on-disk naming scheme.
func TestEntryNameShape(t *testing.T) {
	if got := entryName(0xdeadbeef, KindWeakMin); got != "00000000deadbeef.weak" {
		t.Fatalf("entryName = %q", got)
	}
	for _, tc := range []struct {
		name string
		ok   bool
	}{
		{"00000000deadbeef.weak", true},
		{"00000000deadbeef.zzz", true}, // unknown kind: adopted, never served
		{"00000000DEADBEEF.weak", false},
		{"short.weak", false},
		{"00000000deadbeefXweak", false},
		{fmt.Sprintf("%016x.", 1), false},
	} {
		if got := validEntryName(tc.name); got != tc.ok {
			t.Errorf("validEntryName(%q) = %v, want %v", tc.name, got, tc.ok)
		}
	}
}
