package compose_test

import (
	"math/rand"
	"slices"
	"testing"

	"ccs/internal/compose"
	"ccs/internal/fsp"
	"ccs/internal/gen"
)

// TestVecTableDenseIDs: ids are dense and given in insertion order, a
// repeated key gets its first id back without growing the table, and
// every id's key reads back as inserted across many growths.
func TestVecTableDenseIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := compose.NewVecTable(3, 0)
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

// TestVecTableRetainedKeys: a Key slice taken before the table grows keeps
// its contents afterwards, and appending to it never writes into the
// table.
func TestVecTableRetainedKeys(t *testing.T) {
	tab := compose.NewVecTable(2, 1)
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

// TestVecTableForcedCollisions: keys given one and the same hash, or hashes
// that differ only below the bits that pick a slot, are still told apart
// by their contents, before and after the index grows.
func TestVecTableForcedCollisions(t *testing.T) {
	for _, hash := range []func(i int32) uint64{
		func(int32) uint64 { return 42 << 32 },
		func(i int32) uint64 { return uint64(i&7) << 32 },
	} {
		tab := compose.NewVecTable(2, 0)
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

// TestProductNumberingPinned pins the fingerprint of every gallery
// network's composed product. Fingerprint depends on the state numbering,
// so these values hold only while the explorer numbers product states in
// the same discovery order — which keeps the artifact store's keys for
// composed products where they are.
func TestProductNumberingPinned(t *testing.T) {
	want := map[string]struct {
		states int
		fp     uint64
	}{
		"relay-2":                        {16, 0xce2a64c23d835b79},
		"relay-3":                        {64, 0x19d5c4cd9695f562},
		"relay-4":                        {256, 0x599489ff1f27ec13},
		"lossy-relay-3":                  {64, 0xa842d812a157bd63},
		"token-ring-6":                   {2916, 0xb4df13e485bdaa42},
		"buggy-token-ring-6":             {3645, 0x44c97d2da9903606},
		"relay-3-nondet-spec":            {64, 0x19d5c4cd9695f562},
		"lossy-relay-3-nondet-spec":      {64, 0xa842d812a157bd63},
		"token-ring-6-nondet-spec":       {2916, 0xb4df13e485bdaa42},
		"buggy-token-ring-6-nondet-spec": {3645, 0x44c97d2da9903606},
		"leader-ring-5":                  {811, 0x354f48ae461f788f},
		"leader-ring-5-no-ack":           {811, 0x2f04dcfe2d133085},
		"2pc-3-commit":                   {28, 0x5c27d314ba79dda6},
		"2pc-3-abort":                    {36, 0x9c63bbc2f521a9b7},
		"2pc-3-buggy":                    {39, 0x0f4427366ab7881a},
		"bq-4-1":                         {108, 0xb0833ff9652d2575},
		"bq-4-overfaulty":                {108, 0x1d9fa4a8376f20d8},
		"bq-4-1-nondet-spec":             {108, 0xb0833ff9652d2575},
		"bq-4-overfaulty-nondet-spec":    {108, 0x1d9fa4a8376f20d8},
		"stab-ring-5":                    {1890, 0xda3b9df2a68b0489},
		"stab-ring-5-sinkhole":           {189, 0x77a4bcf62887d763},
	}
	entries := append(gen.NetworkGallery(), gen.ProtocolGallery()...)
	if len(entries) != len(want) {
		t.Fatalf("galleries hold %d entries, %d pinned", len(entries), len(want))
	}
	for _, e := range entries {
		w, ok := want[e.Name]
		if !ok {
			t.Errorf("%s: no pinned fingerprint", e.Name)
			continue
		}
		p, err := e.Net.FSP()
		if err != nil {
			t.Fatal(err)
		}
		if p.NumStates() != w.states || fsp.Fingerprint(p) != w.fp {
			t.Errorf("%s: %d states, fingerprint %#016x; pinned %d states, %#016x",
				e.Name, p.NumStates(), fsp.Fingerprint(p), w.states, w.fp)
		}
	}
}
