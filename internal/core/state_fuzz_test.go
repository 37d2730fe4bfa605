package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"lcm/internal/aead"
)

// withCount returns b with the u32 at off replaced by n: an announced
// element count the rest of the input cannot back.
func withCount(b []byte, off int, n uint32) []byte {
	out := bytes.Clone(b)
	binary.BigEndian.PutUint32(out[off:], n)
	return out
}

// decodeBound is what decoding len bytes may allocate: the entries and
// copies the input can actually hold, never what its counts announce.
func decodeBound(n int) uint64 { return uint64(16*n + 64<<10) }

// formatFixtures reads the committed old-format fixtures that seed every
// decoder fuzz target here: the version-4 delta record, the version-2
// state blob, and that blob's plaintext (it is sealed under the zero key),
// each a V encoding that kept whole sealed replies, and the version-5
// record, whose entries have no form.
func formatFixtures(f *testing.F) [][]byte {
	record, err1 := os.ReadFile("testdata/delta-record-v4.bin")
	blob, err2 := os.ReadFile("testdata/state-blob-v2.bin")
	v5, err3 := os.ReadFile("testdata/delta-record-v5.bin")
	if err := errors.Join(err1, err2, err3); err != nil {
		f.Fatal(err)
	}
	plain, err := aead.Open(aead.Key{}, blob[stateHeaderSize:], append([]byte(adStateBlob), blob[:stateHeaderSize]...))
	if err != nil {
		f.Fatal(err)
	}
	return [][]byte{record, blob, plain, v5}
}

// FuzzDecodeTrustedState: no panic; the bytes allocated are bounded by
// the input's length, whatever its counts announce; and a state that
// decodes re-encodes to exactly the input.
func FuzzDecodeTrustedState(f *testing.F) {
	golden := goldenTrustedState().encode()
	vCount := 8 + 8 + 4 + 16 // AdminSeq, Gen, KC (16 bytes)
	f.Add(golden)
	f.Add(golden[:len(golden)-1])
	f.Add([]byte{1, 2, 3})
	f.Add(make([]byte, 40))
	f.Add(withCount(golden, vCount, 1<<24))                    // 16 M V entries
	f.Add(withCount(golden, vCount, 0xFFFFFFFF))               // the largest count
	f.Add(withCount(golden, len(golden)-(4+8+8+32+32), 1<<30)) // evicted ids
	f.Add(golden[:len(golden)-32])                             // the layout before Head
	evicted := len(golden) - (4 + 8 + 8 + 32 + 32)
	f.Add(append(append(bytes.Clone(golden[:evicted]), 0, 0, 0, 0), golden[evicted:]...)) // version 1's U32 after QFloor
	cut := goldenTrustedState()
	cut.Snapshot, cut.Evicted, cut.SeqT = nil, []uint32{2, 9}, 11 // a cut's frozen state
	f.Add(cut.encode())
	for _, old := range formatFixtures(f) {
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var (
			s   *trustedState
			err error
		)
		if alloc, _ := allocated(func() { s, err = decodeTrustedState(b) }); alloc > decodeBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(b), alloc, decodeBound(len(b)))
		}
		if err != nil {
			return
		}
		if out := s.encode(); !bytes.Equal(out, b) {
			t.Fatalf("decode/encode round trip changed the state:\n in %x\nout %x", b, out)
		}
	})
}

// withFlags returns golden with exactly the optional fields whose
// presence bits are set in flags.
func withFlags(golden *deltaRecord, flags byte) *deltaRecord {
	d := *golden
	if flags&recAnchors == 0 {
		d.Anchors = false
	}
	if flags&recDelta == 0 {
		d.Delta = nil
	}
	if flags&recBeacon == 0 {
		d.BeaconSeq, d.BeaconTick = 0, 0
	}
	if flags&recRemoved == 0 {
		d.Removed = nil
	}
	if flags&recEpoch == 0 {
		d.GroupEpoch = 0
	}
	if flags&recQFloor == 0 {
		d.QFloor = 0
	}
	return &d
}

// FuzzDecodeDeltaRecord: the same three oracles for a delta-log record,
// seeded with every combination of the optional fields in the current
// format and with the committed old-format records and state blob.
func FuzzDecodeDeltaRecord(f *testing.F) {
	golden := goldenDeltaRecord()
	for flags := 0; flags < recQFloor<<1; flags++ {
		f.Add(withFlags(golden, byte(flags)).encode())
	}
	enc := golden.encode()
	entriesCount := 2 + 8                          // version, flags, ToT
	removedCount := len(enc) - (4 + 4 + 4 + 8 + 8) // before the ids, GroupEpoch, QFloor
	f.Add(enc[:len(enc)-1])
	f.Add(make([]byte, 40))
	f.Add(withCount(enc, entriesCount, 1<<24))
	f.Add(withCount(enc, entriesCount, 0xFFFFFFFF))
	f.Add(withCount(enc, removedCount, 1<<30))
	reads := readRecord()
	f.Add(reads.encode())
	delete(reads.Reads, 2)
	f.Add(reads.encode())
	for _, old := range []string{"testdata/delta-record-v1.bin", "testdata/delta-record-v2.bin", "testdata/delta-record-v3.bin"} {
		b, err := os.ReadFile(old)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, old := range formatFixtures(f) {
		f.Add(old)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var (
			d   *deltaRecord
			err error
		)
		if alloc, _ := allocated(func() { d, err = decodeDeltaRecord(b) }); alloc > decodeBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(b), alloc, decodeBound(len(b)))
		}
		if err != nil {
			return
		}
		if out := d.encode(); !bytes.Equal(out, b) {
			t.Fatalf("decode/encode round trip changed the record:\n in %x\nout %x", b, out)
		}
	})
}

// The canonical V encoding is the only one: entries out of id order, or a
// repeated id, do not decode (the encoders never write either).
func TestDecodeVMapRejectsNonCanonicalOrder(t *testing.T) {
	golden := goldenTrustedState().encode()
	first := 8 + 8 + 4 + 16 + 4 // the first V entry's id
	second := first + vEntryMinSize + len(testReply("cached-reply"))
	for name, id := range map[string]uint32{"descending": 0, "repeated": 1} {
		b := withCount(golden, second, id)
		if _, err := decodeTrustedState(b); err == nil {
			t.Fatalf("%s ids decoded", name)
		}
	}
	if _, err := decodeTrustedState(withCount(golden, second, 3)); err != nil {
		t.Fatalf("ascending ids 1, 3: %v", err)
	}
	if _, err := decodeTrustedState(withCount(golden, first, 0)); err != nil {
		t.Fatalf("ascending ids 0, 2: %v", err)
	}
}

// A V entry's cached reply is empty or holds at least its fixed part
// (nonce, tag, Q, BeaconSeq): a shorter one does not decode, so a retry
// never slices past its end.
func TestDecodeVMapRejectsShortReply(t *testing.T) {
	s := goldenTrustedState()
	s.V[1].Reply = testReply("")
	if _, err := decodeTrustedState(s.encode()); err != nil {
		t.Fatalf("a cached reply with an empty result: %v", err)
	}
	s.V[1].Reply = s.V[1].Reply[:cachedReplyMin-1]
	if _, err := decodeTrustedState(s.encode()); err == nil {
		t.Fatalf("a %d-byte cached reply decoded", cachedReplyMin-1)
	}
}
