// Package store is the persistent, content-addressed artifact store behind
// the engine's in-memory cache: derived artifacts — the canonical ~, ≈ and
// ≈ᶜ quotients — are spilled to disk keyed by the structural fingerprint
// of the process they derive from (fsp.Fingerprint), so they survive the
// process that computed them. A
// long-lived server (internal/server) or a repeated CLI invocation against
// the same cache directory then answers most queries from warm artifacts
// instead of re-running partition refinement.
//
// The store is a cache, not a database: every failure mode degrades to a
// cold miss. Entries are written to a temporary file and atomically
// renamed into place, so a crash mid-write leaves at worst an ignored temp
// file, never a torn entry; reads validate a magic header, a format
// version, a payload checksum and a second independent fingerprint of the
// source process (the collision guard), and anything that fails — a
// truncated file, a bit flip, a future format, a 64-bit fingerprint
// collision — is silently discarded and recounted as a miss. Capacity is
// bounded by a size-capped LRU: inserting past the cap evicts the
// least-recently-used entries. All methods are safe for concurrent use.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"ccs/internal/fsp"
)

// Kind names an artifact family. The kind is part of the entry's key: one
// process has one entry per kind.
type Kind string

// The artifact kinds the engine spills.
const (
	// KindStrongMin is the canonical quotient modulo ~.
	KindStrongMin Kind = "strong"
	// KindWeakMin is the reduced quotient modulo ≈.
	KindWeakMin Kind = "weak"
	// KindCongMin is the reduced ≈ᶜ-preserving quotient.
	KindCongMin Kind = "cong"
)

// kindByte gives each kind a stable byte for the entry header, so a file
// renamed to another kind's name is rejected. The byte doubles as the
// kind's codec version: when an artifact family changes shape, its byte
// is bumped and every stale on-disk entry fails the header check — a
// silent cold miss, never a wrong-shaped artifact. KindCongMin was 5
// while the ≈ᶜ quotient could carry a fresh root, and 7 while it was
// dense and weak-closed; KindWeakMin was 4 while it was dense. Both became
// reduced quotients (8 and 9): a dense quotient read back under the new
// kinds would get a different signature record than the reduced one of
// an equivalent process. Bytes 1, 2 and 6 belonged to the retired
// tau-closure, refinement-index and saturated-form kinds, which older
// stores may still hold; like 4, 5 and 7, never reuse them.
var kindByte = map[Kind]byte{
	KindStrongMin: 3, KindWeakMin: 8, KindCongMin: 9,
}

const (
	magic         = "CCSA"
	formatVersion = 1
	headerLen     = 4 + 2 + 1 + 1 + 8 + 4 // magic, version, kind, reserved, verify, crc
	tmpPrefix     = ".tmp-"
)

// Stats is a snapshot of the store's counters.
type Stats struct {
	// Entries and Bytes describe the current contents.
	Entries int
	Bytes   int64
	// Hits and Misses count Get outcomes; Corrupt is the subset of misses
	// caused by an unreadable or mismatched entry (which is then deleted).
	Hits, Misses, Corrupt int64
	// Writes counts successful Puts; WriteErrors counts abandoned ones.
	Writes, WriteErrors int64
	// Evictions counts entries removed by the LRU cap.
	Evictions int64
}

type entry struct {
	name string
	size int64
	// LRU links: the store keeps a doubly-linked list, most recent first.
	prev, next *entry
}

// Store is a size-capped persistent artifact cache rooted at a directory.
// Open one with Open; the zero value is not usable.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
	total   int64

	hits, misses, corrupt int64
	writes, writeErrors   int64
	evictions             int64
}

// Open opens (creating if necessary) the store rooted at dir. maxBytes
// bounds the total size of stored entries; zero or negative means
// unbounded. Leftover temporary files from a crashed writer are removed;
// existing entries are adopted with an LRU order approximated by file
// modification time. Entries are validated lazily on Get, so a corrupted
// file in the directory never fails Open.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		entries:  map[string]*entry{},
	}
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	type aged struct {
		e     *entry
		mtime int64
	}
	var found []aged
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() {
			continue
		}
		if strings.HasPrefix(name, tmpPrefix) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if !validEntryName(name) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		found = append(found, aged{
			e:     &entry{name: name, size: info.Size()},
			mtime: info.ModTime().UnixNano(),
		})
	}
	// Newest first, so pushing back builds the list most-recent-at-head.
	sort.Slice(found, func(i, j int) bool { return found[i].mtime > found[j].mtime })
	for _, a := range found {
		s.entries[a.e.name] = a.e
		s.pushBack(a.e)
		s.total += a.e.size
	}
	// An inherited directory may already exceed the cap.
	s.evictLocked()
	return s, nil
}

// entryName is the content address: fingerprint, then kind.
func entryName(fp uint64, kind Kind) string { return fmt.Sprintf("%016x.%s", fp, kind) }

// validEntryName accepts "<16 hex>.<kind>" names. Unknown kind suffixes
// are still adopted by Open (they count toward the cap and age out via the
// LRU) but are never served.
func validEntryName(name string) bool {
	if len(name) < 18 || name[16] != '.' {
		return false
	}
	for _, c := range name[:16] {
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// GetFSP loads a stored process artifact (a quotient).
func (s *Store) GetFSP(fp, verify uint64, kind Kind) (*fsp.FSP, bool) {
	payload, ok := s.get(fp, verify, kind)
	if !ok {
		return nil, false
	}
	f, err := decodeFSP(payload)
	if err != nil {
		s.discard(entryName(fp, kind), true)
		return nil, false
	}
	s.noteHit()
	return f, true
}

// PutFSP stores a process artifact.
func (s *Store) PutFSP(fp, verify uint64, kind Kind, f *fsp.FSP) {
	s.put(fp, verify, kind, encodeFSP(f))
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:     len(s.entries),
		Bytes:       s.total,
		Hits:        s.hits,
		Misses:      s.misses,
		Corrupt:     s.corrupt,
		Writes:      s.writes,
		WriteErrors: s.writeErrors,
		Evictions:   s.evictions,
	}
}

// get returns the validated payload of an entry, or a recorded miss. The
// file read happens outside the lock; a concurrent eviction then surfaces
// as a read error, which is handled like any other miss.
func (s *Store) get(fp, verify uint64, kind Kind) ([]byte, bool) {
	name := entryName(fp, kind)
	s.mu.Lock()
	e := s.entries[name]
	if e == nil {
		s.misses++
		mMisses.Inc()
		s.mu.Unlock()
		return nil, false
	}
	s.moveToFront(e)
	s.mu.Unlock()

	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		s.discard(name, false)
		return nil, false
	}
	payload, err := parseEntry(data, kind, verify)
	if err != nil {
		s.discard(name, true)
		return nil, false
	}
	return payload, true
}

// noteHit records a fully successful Get: header, checksum and payload
// decode all passed. Counted by the typed accessors rather than get, so a
// payload that parses as bytes but decodes to garbage is a miss, not a
// hit-then-miss.
func (s *Store) noteHit() {
	mHits.Inc()
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
}

// discard removes an unreadable or mismatched entry and counts the miss.
func (s *Store) discard(name string, corrupt bool) {
	s.mu.Lock()
	if e := s.entries[name]; e != nil {
		s.unlink(e)
		delete(s.entries, name)
		s.total -= e.size
	}
	s.misses++
	mMisses.Inc()
	if corrupt {
		s.corrupt++
		mCorrupt.Inc()
	}
	s.mu.Unlock()
	os.Remove(filepath.Join(s.dir, name))
}

// parseEntry validates an entry file and returns its payload.
func parseEntry(data []byte, kind Kind, verify uint64) ([]byte, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("store: entry shorter than header")
	}
	if string(data[:4]) != magic {
		return nil, fmt.Errorf("store: bad magic")
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != formatVersion {
		return nil, fmt.Errorf("store: format version %d, want %d", v, formatVersion)
	}
	if data[6] != kindByte[kind] {
		return nil, fmt.Errorf("store: entry kind %d, want %d", data[6], kindByte[kind])
	}
	if data[7] != 0 {
		// Reserved byte: must be zero in version 1, so a future writer
		// that assigns it meaning is not misread by this reader.
		return nil, fmt.Errorf("store: reserved header byte %d", data[7])
	}
	if got := binary.LittleEndian.Uint64(data[8:16]); got != verify {
		// Either a 64-bit fingerprint collision between distinct processes
		// or corruption of the verify field itself; both are misses.
		return nil, fmt.Errorf("store: verify fingerprint mismatch")
	}
	payload := data[headerLen:]
	if got := binary.LittleEndian.Uint32(data[16:20]); got != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("store: payload checksum mismatch")
	}
	return payload, nil
}

// put writes an entry atomically: encode to a temp file in the same
// directory, then rename into place. Failures abandon the write (the store
// is best-effort); success inserts the entry at the front of the LRU and
// evicts past the cap.
func (s *Store) put(fp, verify uint64, kind Kind, payload []byte) {
	size := int64(headerLen + len(payload))
	if s.maxBytes > 0 && size > s.maxBytes {
		return // larger than the whole cache; never storable
	}
	data := make([]byte, headerLen, headerLen+len(payload))
	copy(data, magic)
	binary.LittleEndian.PutUint16(data[4:6], formatVersion)
	data[6] = kindByte[kind]
	data[7] = 0 // reserved
	binary.LittleEndian.PutUint64(data[8:16], verify)
	binary.LittleEndian.PutUint32(data[16:20], crc32.ChecksumIEEE(payload))
	data = append(data, payload...)

	name := entryName(fp, kind)
	tmp, err := os.CreateTemp(s.dir, tmpPrefix+"*")
	if err != nil {
		s.noteWriteError()
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		s.noteWriteError()
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.noteWriteError()
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, name)); err != nil {
		os.Remove(tmp.Name())
		s.writeErrors++
		mWriteErrors.Inc()
		return
	}
	if e := s.entries[name]; e != nil {
		s.total += size - e.size
		e.size = size
		s.moveToFront(e)
	} else {
		e := &entry{name: name, size: size}
		s.entries[name] = e
		s.pushFront(e)
		s.total += size
	}
	s.writes++
	mWrites.Inc()
	s.evictLocked()
}

func (s *Store) noteWriteError() {
	mWriteErrors.Inc()
	s.mu.Lock()
	s.writeErrors++
	s.mu.Unlock()
}

// evictLocked removes least-recently-used entries until the total fits the
// cap. Called with s.mu held.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.total > s.maxBytes && s.tail != nil {
		e := s.tail
		s.unlink(e)
		delete(s.entries, e.name)
		s.total -= e.size
		s.evictions++
		mEvictions.Inc()
		os.Remove(filepath.Join(s.dir, e.name))
	}
}

// Intrusive LRU list plumbing; all called with s.mu held.

func (s *Store) pushFront(e *entry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *Store) pushBack(e *entry) {
	e.prev, e.next = s.tail, nil
	if s.tail != nil {
		s.tail.next = e
	}
	s.tail = e
	if s.head == nil {
		s.head = e
	}
}

func (s *Store) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if s.head == e {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if s.tail == e {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *Store) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}
