package compose

import (
	"math/bits"
	"slices"
)

// VecTable hash-conses fixed-stride int32 vectors — product state vectors,
// or a vector with a spec id appended — into dense ids. Keys live back to
// back in one arena and are found through an open-addressing index of
// (hash tag, id) words, so interning a known key allocates nothing and a
// new key costs one arena append. Ids are dense and given in insertion
// order, and a stored key never changes: a slice returned by Key stays
// valid, with the same contents, after the table grows (growth copies the
// arena to a new backing array and leaves the old one as it was).
//
// A VecTable is not safe for concurrent use; callers that share one guard
// it themselves.
type VecTable struct {
	stride int
	arena  []int32
	// slots is the open-addressing index: 0 marks an empty slot, anything
	// else is tag<<32 | id+1, where tag is the high half of the key's hash.
	// Its length is a power of two, 1<<(32-shift).
	slots []uint64
	shift uint
	n     int32
}

// NewVecTable returns an empty table for keys of length stride, sized for
// about hint keys before its first growth. With hint 0 nothing is
// allocated until the first key arrives.
func NewVecTable(stride, hint int) *VecTable {
	t := &VecTable{stride: stride}
	if hint > 0 {
		t.arena = make([]int32, 0, stride*hint)
		t.setSlots(max(16, 1<<bits.Len(uint(2*hint-1))))
	}
	return t
}

// setSlots installs an empty index of n slots, n a power of two.
func (t *VecTable) setSlots(n int) {
	t.slots = make([]uint64, n)
	t.shift = uint(32 - bits.TrailingZeros(uint(n)))
}

// HashVec hashes an int32 vector. The high 32 bits pick a VecTable slot,
// so callers that shard keys over several tables should take the shard
// from the low bits.
func HashVec(v []int32) uint64 {
	h := uint64(len(v)) * 0x9E3779B97F4A7C15
	for _, x := range v {
		h = bits.RotateLeft64((h^uint64(uint32(x)))*0xBF58476D1CE4E5B9, 31)
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return h
}

// Len returns the number of keys interned.
func (t *VecTable) Len() int { return int(t.n) }

// Key returns the key with the given id, aliasing the arena. The slice is
// capacity-limited, so appending to it never writes into the table.
func (t *VecTable) Key(id int32) []int32 {
	lo := int(id) * t.stride
	return t.arena[lo : lo+t.stride : lo+t.stride]
}

// Intern returns key's id, storing a copy of key under the next dense id
// if it is new; fresh reports whether it was. len(key) must equal the
// table's stride.
func (t *VecTable) Intern(key []int32) (id int32, fresh bool) {
	return t.InternHash(key, HashVec(key))
}

// InternHash is Intern with the key's hash supplied by the caller, who must
// pass the same h for equal keys (normally HashVec(key), computed once to
// pick a shard as well).
func (t *VecTable) InternHash(key []int32, h uint64) (id int32, fresh bool) {
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
func (t *VecTable) grow() {
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
