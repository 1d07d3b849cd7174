// Package hashcons is the program's one hash-cons table: it interns
// fixed-stride vectors of int32 or uint64 words into dense int32 ids. The
// on-the-fly game and the product explorer intern product state vectors in
// it (compose, otf), and the subset walk of internal/automata interns its
// bitset subset rows and subset pairs, as does the otf spec determinizer.
package hashcons

import (
	"math/bits"
	"slices"
)

// Word is the element type of a key: int32 for state and id vectors,
// uint64 for bitset rows.
type Word interface{ int32 | uint64 }

// Table hash-conses fixed-stride vectors into dense ids. Keys live back to
// back in one arena and are found through an open-addressing index of
// (hash tag, id) words, so interning a known key allocates nothing and a
// new key costs one arena append. Ids are dense and given in insertion
// order, and a stored key never changes: a slice returned by Key stays
// valid, with the same contents, after the table grows (growth copies the
// arena to a new backing array and leaves the old one as it was).
//
// A Table is not safe for concurrent use; callers that share one guard it
// themselves.
type Table[W Word] struct {
	stride int
	arena  []W
	// slots is the open-addressing index: 0 marks an empty slot, anything
	// else is tag<<32 | id+1, where tag is the high half of the key's hash.
	// Its length is a power of two, 1<<(32-shift).
	slots []uint64
	shift uint
	n     int32
}

// New returns an empty table for keys of length stride, sized for about
// hint keys before its first growth. With hint 0 nothing is allocated
// until the first key arrives.
func New[W Word](stride, hint int) *Table[W] {
	t := &Table[W]{stride: stride}
	if hint > 0 {
		t.arena = make([]W, 0, stride*hint)
		t.setSlots(max(16, 1<<bits.Len(uint(2*hint-1))))
	}
	return t
}

// setSlots installs an empty index of n slots, n a power of two.
func (t *Table[W]) setSlots(n int) {
	t.slots = make([]uint64, n)
	t.shift = uint(32 - bits.TrailingZeros(uint(n)))
}

// Hash hashes a vector, widening each int32 word by sign extension. The
// high 32 bits pick a Table slot, so callers that shard keys over several
// tables should take the shard from the low bits.
func Hash[W Word](v []W) uint64 {
	h := uint64(len(v)) * 0x9E3779B97F4A7C15
	for _, x := range v {
		h = bits.RotateLeft64((h^uint64(x))*0xBF58476D1CE4E5B9, 31)
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

// Len returns the number of keys interned.
func (t *Table[W]) Len() int { return int(t.n) }

// Key returns the key with the given id, aliasing the arena. The slice is
// capacity-limited, so appending to it never writes into the table.
func (t *Table[W]) Key(id int32) []W {
	lo := int(id) * t.stride
	return t.arena[lo : lo+t.stride : lo+t.stride]
}

// Intern returns key's id, storing a copy of key under the next dense id
// if it is new; fresh reports whether it was. len(key) must equal the
// table's stride.
func (t *Table[W]) Intern(key []W) (id int32, fresh bool) {
	return t.InternHash(key, Hash(key))
}

// InternHash is Intern with the key's hash supplied by the caller, who must
// pass the same h for equal keys (normally Hash(key), computed once to
// pick a shard as well).
func (t *Table[W]) InternHash(key []W, h uint64) (id int32, fresh bool) {
	if t.slots == nil {
		t.setSlots(16)
	}
	tag := uint32(h >> 32)
	mask := uint32(len(t.slots) - 1)
	for i := tag >> t.shift; ; i = (i + 1) & mask {
		e := t.slots[i]
		if e == 0 {
			id = t.n
			t.n++
			t.arena = append(t.arena, key...)
			t.slots[i] = uint64(tag)<<32 | uint64(id+1)
			if 2*int(t.n) > len(t.slots) {
				t.grow()
			}
			return id, true
		}
		if uint32(e>>32) == tag && slices.Equal(t.Key(int32(uint32(e))-1), key) {
			return int32(uint32(e)) - 1, false
		}
	}
}

// grow doubles the index, re-placing each entry by its stored tag alone.
func (t *Table[W]) grow() {
	old := t.slots
	t.setSlots(2 * len(old))
	mask := uint32(len(t.slots) - 1)
	for _, e := range old {
		if e == 0 {
			continue
		}
		i := uint32(e>>32) >> t.shift
		for t.slots[i] != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = e
	}
}
