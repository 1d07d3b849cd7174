package store

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"ccs/internal/fsp"
)

// fuzzSeedFSP builds the codec fixture without *testing.T (fuzz seeding
// runs before any test context exists).
func fuzzSeedFSP() *fsp.FSP {
	f, err := fsp.ParseString(fixture)
	if err != nil {
		panic(err)
	}
	return f
}

// entryBytes assembles a store entry file around payload, the same layout
// put writes — so the fuzzer's seeds start from genuine entries and
// mutate from there.
func entryBytes(kind Kind, verify uint64, payload []byte) []byte {
	data := make([]byte, headerLen, headerLen+len(payload))
	copy(data, magic)
	binary.LittleEndian.PutUint16(data[4:6], formatVersion)
	data[6] = kindByte[kind]
	binary.LittleEndian.PutUint64(data[8:16], verify)
	binary.LittleEndian.PutUint32(data[16:20], crc32.ChecksumIEEE(payload))
	return append(data, payload...)
}

// FuzzEntryDecode drives arbitrary bytes through the full read path of a
// store entry — header validation, then the payload decoder that the
// three quotient kinds share. The contract under fuzzing is the store's
// own: hostile bytes are at worst a typed error (a cold miss), never a
// panic, and anything decodeFSP accepts must be a process the rest of the
// engine can re-encode.
func FuzzEntryDecode(f *testing.F) {
	fspPayload := encodeFSP(fuzzSeedFSP())
	f.Add(entryBytes(KindStrongMin, 42, fspPayload))
	f.Add(entryBytes(KindCongMin, 42, fspPayload))
	f.Add(entryBytes(KindWeakMin, 0, nil))
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Add(fspPayload) // headerless payload: must fail the magic check
	// A genuine payload under each retired kind byte (see kindByte).
	for _, retired := range []byte{1, 2, 4, 5, 6, 7} {
		data := entryBytes(KindWeakMin, 42, fspPayload)
		data[6] = retired
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range []Kind{KindStrongMin, KindWeakMin, KindCongMin} {
			payload, err := parseEntry(data, kind, 42)
			if err != nil {
				continue
			}
			g, err := decodeFSP(payload)
			if err != nil {
				continue
			}
			// An accepted process must survive re-encoding: the codec may
			// not admit values its own encoder cannot represent.
			if _, err := decodeFSP(encodeFSP(g)); err != nil {
				t.Fatalf("accepted process does not round-trip: %v", err)
			}
		}
	})
}
