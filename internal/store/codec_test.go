package store

import (
	"testing"

	"ccs/internal/fsp"
)

// The codec tests feed the decoder hostile bytes directly, below the
// store's header/checksum layer: in the store proper the CRC catches most
// damage, so these are the paths that defend against a payload that is
// internally inconsistent (which the CRC, computed over the same bytes,
// cannot see).

func TestDecodeFSPTruncatedPrefixes(t *testing.T) {
	f := mustParse(t, fixture)
	payload := encodeFSP(f)
	for n := 0; n < len(payload); n++ {
		if _, err := decodeFSP(payload[:n]); err == nil {
			t.Fatalf("prefix of %d bytes decoded without error", n)
		}
	}
	if _, err := decodeFSP(append(append([]byte(nil), payload...), 0)); err == nil {
		t.Fatalf("trailing byte accepted")
	}
}

// TestDecodeFSPBitFlips flips each byte of a valid payload and checks the
// decoder either errors or produces a well-formed process — never panics.
// (Some flips yield a different but valid process; that is what the
// store-level CRC is for.)
func TestDecodeFSPBitFlips(t *testing.T) {
	f := mustParse(t, fixture)
	payload := encodeFSP(f)
	for i := range payload {
		for _, bit := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), payload...)
			mut[i] ^= bit
			g, err := decodeFSP(mut)
			if err == nil && (g.NumStates() == 0 || int(g.Start()) >= g.NumStates()) {
				t.Fatalf("byte %d flip %#x: malformed process accepted", i, bit)
			}
		}
	}
}

// TestDecodeHugeCountRejected: a corrupt count must be rejected by the
// bytes-remaining bound before any allocation is attempted.
func TestDecodeHugeCountRejected(t *testing.T) {
	e := &encoder{}
	e.str("X")
	e.vint(1)
	e.str("a")
	e.vint(0)
	e.uvarint(1 << 40) // states: absurd
	if _, err := decodeFSP(e.b); err == nil {
		t.Fatalf("absurd state count accepted")
	}
}

// TestFSPNoVarsNoExt: processes without variables or extensions (the
// common case for generated systems) round-trip.
func TestFSPNoVarsNoExt(t *testing.T) {
	f := mustParse(t, "alphabet a b\nstates 3\narc 0 a 1\narc 1 b 2\narc 2 tau 0\n")
	got, err := decodeFSP(encodeFSP(f))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !fsp.StructuralEqual(f, got) {
		t.Fatalf("round trip mismatch")
	}
}
