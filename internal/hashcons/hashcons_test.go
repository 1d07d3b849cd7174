package hashcons_test

import (
	"math/rand"
	"slices"
	"testing"

	"ccs/internal/hashcons"
)

// TestTableDenseIDs: ids are dense and given in insertion order, a
// repeated key gets its first id back without growing the table, and
// every id's key reads back as inserted across many growths.
func TestTableDenseIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := hashcons.New[int32](3, 0)
	ids := map[[3]int32]int32{}
	var keys [][3]int32
	for i := 0; i < 20000; i++ {
		k := [3]int32{rng.Int31n(30), rng.Int31n(30), rng.Int31n(30) - 15}
		id, fresh := tab.Intern(k[:])
		if want, ok := ids[k]; ok {
			if fresh || id != want {
				t.Fatalf("repeat of %v: id %d fresh %v, want id %d and not fresh", k, id, fresh, want)
			}
		} else {
			if !fresh || int(id) != len(keys) {
				t.Fatalf("new key %v: id %d fresh %v, want id %d and fresh", k, id, fresh, len(keys))
			}
			ids[k] = id
			keys = append(keys, k)
		}
		if tab.Len() != len(keys) {
			t.Fatalf("Len %d after %d distinct keys", tab.Len(), len(keys))
		}
	}
	for id, k := range keys {
		if got := tab.Key(int32(id)); !slices.Equal(got, k[:]) {
			t.Fatalf("Key(%d) = %v, want %v", id, got, k)
		}
	}
}

// TestTableUint64Rows: bitset rows intern like int32 vectors, and rows
// that differ only in a high bit or a later word get distinct ids.
func TestTableUint64Rows(t *testing.T) {
	tab := hashcons.New[uint64](2, 0)
	rows := [][]uint64{{0, 0}, {1, 0}, {1 << 63, 0}, {0, 1}, {0, 1 << 63}, {^uint64(0), ^uint64(0)}}
	for round := 0; round < 2; round++ {
		for i, r := range rows {
			id, fresh := tab.Intern(r)
			if int(id) != i || fresh != (round == 0) {
				t.Fatalf("round %d row %v: id %d fresh %v", round, r, id, fresh)
			}
		}
	}
	for i, r := range rows {
		if got := tab.Key(int32(i)); !slices.Equal(got, r) {
			t.Fatalf("Key(%d) = %v, want %v", i, got, r)
		}
	}
}

// TestHashPinned pins Hash on int32 keys. The otf game takes a visited
// shard from the hash's low bits, so a changed hash would move keys
// between shards.
func TestHashPinned(t *testing.T) {
	for _, c := range []struct {
		key  []int32
		want uint64
	}{
		{nil, 0x0},
		{[]int32{0}, 0xc5df804db580b7b3},
		{[]int32{1, 2, 3}, 0x8c2d86a5e664bd3c},
	} {
		if got := hashcons.Hash(c.key); got != c.want {
			t.Errorf("Hash(%v) = %#x, want %#x", c.key, got, c.want)
		}
	}
	if hashcons.Hash([]uint64{7}) != hashcons.Hash([]int32{7}) {
		t.Error("a non-negative int32 word must hash as the same uint64 word")
	}
}

// TestTableRetainedKeys: a Key slice taken before the table grows keeps
// its contents afterwards, and appending to it never writes into the
// table.
func TestTableRetainedKeys(t *testing.T) {
	tab := hashcons.New[int32](2, 1)
	var retained [][]int32
	for i := int32(0); i < 5000; i++ {
		id, _ := tab.Intern([]int32{i, -i})
		if i%97 == 0 {
			retained = append(retained, tab.Key(id))
		}
	}
	for j, key := range retained {
		i := int32(j * 97)
		if !slices.Equal(key, []int32{i, -i}) {
			t.Fatalf("key %d retained as %v, want [%d %d]", i, key, i, -i)
		}
		_ = append(key, 12345)
		if next := tab.Key(i + 1); !slices.Equal(next, []int32{i + 1, -i - 1}) {
			t.Fatalf("appending to key %d overwrote key %d: %v", i, i+1, next)
		}
	}
}

// TestTableForcedCollisions: keys given one and the same hash, or hashes
// that differ only below the bits that pick a slot, are still told apart
// by their contents, before and after the index grows.
func TestTableForcedCollisions(t *testing.T) {
	for _, hash := range []func(i int32) uint64{
		func(int32) uint64 { return 42 << 32 },
		func(i int32) uint64 { return uint64(i&7) << 32 },
	} {
		tab := hashcons.New[int32](2, 0)
		for round := 0; round < 2; round++ {
			for i := int32(0); i < 300; i++ {
				id, fresh := tab.InternHash([]int32{i, i * i}, hash(i))
				if id != i || fresh != (round == 0) {
					t.Fatalf("round %d key %d: id %d fresh %v", round, i, id, fresh)
				}
			}
		}
		if tab.Len() != 300 {
			t.Fatalf("Len %d, want 300", tab.Len())
		}
	}
}
