package compose_test

import (
	"testing"

	"ccs/internal/fsp"
	"ccs/internal/gen"
)

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
