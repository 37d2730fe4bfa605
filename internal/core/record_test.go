package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lcm/internal/aead"
	"lcm/internal/kvs"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
)

// recordFields breaks a record's sealed size down by field, in layout
// order; the parts sum to the sealed size.
func recordFields(rec *deltaRecord) [][2]any {
	fields := [][2]any{{"aead nonce+tag", aead.Overhead}, {"version+flags", 2}, {"ToT", 8}, {"entry count", 4}}
	for _, id := range rec.Entries.clientIDs() {
		e := rec.Entries[id]
		if rec.Reads[id].form == entryFirstRead {
			fields = append(fields, [2]any{fmt.Sprintf("entry %d id+form", id), 4 + 1})
		} else {
			fields = append(fields, [2]any{fmt.Sprintf("entry %d id+form+T+H", id), 4 + 1 + 8 + 32})
		}
		if rec.Anchors {
			fields = append(fields, [2]any{fmt.Sprintf("entry %d TA+HA", id), anchorSize})
		}
		if read, ok := rec.Reads[id]; ok {
			fields = append(fields, [2]any{fmt.Sprintf("entry %d Reply, op kept", id), 4 + cachedReplyMin + len(read.op)})
		} else {
			fields = append(fields, [2]any{fmt.Sprintf("entry %d Reply", id), 4 + len(e.Reply)})
		}
	}
	for _, opt := range []struct {
		name string
		size int
		on   bool
	}{
		{"ServiceDelta", 4 + len(rec.Delta), len(rec.Delta) > 0},
		{"BeaconSeq BeaconTick", 16, rec.BeaconSeq > 0},
		{"Removed", 4 + 4*len(rec.Removed), len(rec.Removed) > 0},
		{"GroupEpoch", 8, rec.GroupEpoch > 0},
		{"QFloor", 8, rec.QFloor > 0},
	} {
		if opt.on {
			fields = append(fields, [2]any{opt.name, opt.size})
		}
	}
	return fields
}

// lastRecord opens the newest stored record, walking the stored chain
// from the blob to reach its chain position.
func (r *rig) lastRecord() (*deltaRecord, int) {
	r.t.Helper()
	blob, err := r.storage.Load(SlotStateBlob)
	if err != nil {
		r.t.Fatal(err)
	}
	base, from, err := openStateBlob(r.admin.kp, blob, func() ([]byte, error) { return r.storage.Load(SlotStateBlob) })
	if err != nil {
		r.t.Fatal(err)
	}
	var ad recordAD
	var last *deltaRecord
	var size int
	prev, t := base.Head, base.SeqT
	for ; ; from++ {
		log, err := r.storage.LoadLog(SegmentSlot(from))
		if err != nil {
			r.t.Fatalf("segment %d: %v", from, err)
		}
		if len(log) == 0 {
			if last == nil {
				r.t.Fatal("no record stored after the blob")
			}
			return last, size
		}
		for i, sealed := range log {
			plain, err := aead.Open(r.admin.kp, sealed, ad.at(prev, t, base.AdminSeq))
			if err != nil {
				r.t.Fatalf("segment %d record %d: %v", from, i, err)
			}
			if last, err = decodeDeltaRecord(plain); err != nil {
				r.t.Fatal(err)
			}
			prev, t, size = blobHash(sealed), last.ToT, len(sealed)
		}
	}
}

// The sealed size of a one-op record is pinned: a put of bench/'s 40-byte
// key and 100-byte value, a get, and a SCAN with 11 hits of such entries
// (scanmix's), each from the second of two clients in steady state. A
// read keeps its op, not its result. A failure prints what every field
// costs.
func TestDeltaRecordByteBudget(t *testing.T) {
	r := newRig(t, []uint32{1, 2})
	key, value := strings.Repeat("k", 40), strings.Repeat("v", 100)
	for i := 0; i < 3; i++ {
		r.mustPut(1, key, value)
		r.mustPut(2, key, value)
	}
	for i := 0; i < 11; i++ {
		r.mustPut(1, fmt.Sprintf("user%02d%s", i, key[:34]), value)
	}
	for _, tc := range []struct {
		name string
		op   []byte
		want int
	}{
		{"put", kvs.Put(key, value), 305},
		{"get", kvs.Get(key), 148},
		{"scan", kvs.Scan("user", 50), 116},
	} {
		r.mustDo(1, tc.op)
		if hits, err := kvs.DecodeScanResult(r.mustDo(2, tc.op).Value); tc.name == "scan" && (err != nil || len(hits) != 11) {
			t.Fatalf("scan: %d hits (%v), want 11", len(hits), err)
		}
		rec, size := r.lastRecord()
		var b strings.Builder
		sum := 0
		for _, f := range recordFields(rec) {
			fmt.Fprintf(&b, "\n  %-24s %4d B", f[0], f[1])
			sum += f[1].(int)
		}
		if sum != size {
			t.Fatalf("%s: the breakdown sums to %d B, the record is %d B:%s", tc.name, sum, size, b.String())
		}
		if size != tc.want {
			t.Errorf("one-op %s record is %d B, want %d:%s", tc.name, size, tc.want, b.String())
		}
	}
}

// Every combination of the optional fields round trips; a flag the
// format does not define, or a flagged field holding its absent value,
// does not decode.
func TestDeltaRecordPresenceFlags(t *testing.T) {
	golden := goldenDeltaRecord()
	for flags := 0; flags < recQFloor<<1; flags++ {
		rec := withFlags(golden, byte(flags))
		enc := rec.encode()
		if enc[1] != byte(flags) {
			t.Fatalf("flags %07b encoded as %07b", flags, enc[1])
		}
		got, err := decodeDeltaRecord(enc)
		if err != nil {
			t.Fatalf("flags %07b: %v", flags, err)
		}
		if !bytes.Equal(got.encode(), enc) {
			t.Fatalf("flags %07b: round trip changed the record", flags)
		}
	}
	enc := golden.encode()
	enc[1] |= recQFloor << 1
	if _, err := decodeDeltaRecord(enc); err == nil {
		t.Fatal("an undefined flag decoded")
	}
	empty := withFlags(golden, recAnchors|recEpoch)
	empty.GroupEpoch = 0
	enc = empty.encode()
	enc[1] |= recEpoch
	if _, err := decodeDeltaRecord(append(enc, make([]byte, 8)...)); err == nil {
		t.Fatal("a flagged zero epoch decoded")
	}
}

// A record in the committed version-1 format (before records carried a
// version byte: its first byte is FromT's high byte, 0) fails with
// ErrRecordVersion, and a restart over a log holding one halts with that
// cause — not as a record that failed authentication or was malformed.
func TestVersion1RecordFailsWithErrRecordVersion(t *testing.T) {
	v1, err := os.ReadFile("testdata/delta-record-v1.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeDeltaRecord(v1); !errors.Is(err, ErrRecordVersion) {
		t.Fatalf("decode of a version-1 record = %v, want ErrRecordVersion", err)
	}
	r := newRig(t, []uint32{1, 2})
	r.mustPut(1, "a", "1")
	sealed, err := aead.Seal(r.admin.kp, v1, []byte(adDeltaLog))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.storage.Append(SlotDeltaLog, sealed); err != nil {
		t.Fatal(err)
	}
	if err := r.enclave.Restart(); !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("restart over a version-1 record = %v, want a halt", err)
	}
	if err := r.enclave.HaltedErr(); !errors.Is(err, ErrRecordVersion) {
		t.Fatalf("halt = %v, want ErrRecordVersion", err)
	}
}

// A record in the committed version-2 format (FromT, AdminSeq and Prev in
// the plaintext, sealed under the bare label) fails the same way: its
// decode reports ErrRecordVersion, and a restart over a log holding one
// halts with that cause, not as a record that failed authentication.
func TestVersion2RecordFailsWithErrRecordVersion(t *testing.T) {
	v2, err := os.ReadFile("testdata/delta-record-v2.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeDeltaRecord(v2); !errors.Is(err, ErrRecordVersion) {
		t.Fatalf("decode of a version-2 record = %v, want ErrRecordVersion", err)
	}
	r := newRig(t, []uint32{1, 2})
	r.mustPut(1, "a", "1")
	sealed, err := aead.Seal(r.admin.kp, v2, []byte(adDeltaLog))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.storage.Append(SlotDeltaLog, sealed); err != nil {
		t.Fatal(err)
	}
	if err := r.enclave.Restart(); !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("restart over a version-2 record = %v, want a halt", err)
	}
	var halt *tee.HaltError
	if err := r.enclave.HaltedErr(); !errors.Is(err, ErrRecordVersion) || !errors.As(err, &halt) || halt.Reason != "delta record version unknown" {
		t.Fatalf("halt = %v, want ErrRecordVersion", err)
	}
}

// A record in the committed version-3 format (sealed at its chain
// position like later versions, but its bank delta had the layout before
// service.Keyed) fails with ErrRecordVersion: its decode reports it, and a
// restart over a log holding one, sealed at the head's position, halts
// with that cause rather than folding a delta it would misread.
func TestVersion3RecordFailsWithErrRecordVersion(t *testing.T) {
	oldRecordAtHeadHalts(t, "testdata/delta-record-v3.bin")
}

// A record in the committed version-4 format (its entries kept the whole
// sealed reply, not its inputs) fails the same way, in decode and as a
// halt of the restart over it, rather than as a malformed cached reply.
func TestVersion4RecordFailsWithErrRecordVersion(t *testing.T) {
	oldRecordAtHeadHalts(t, "testdata/delta-record-v4.bin")
}

// A record in the committed version-5 format (every entry kept its
// result; no entry form) fails the same way, rather than as an entry form
// misread.
func TestVersion5RecordFailsWithErrRecordVersion(t *testing.T) {
	oldRecordAtHeadHalts(t, "testdata/delta-record-v5.bin")
}

// oldRecordAtHeadHalts checks that the record plaintext in fixture fails
// to decode with ErrRecordVersion, and that a restart over a log holding
// it, sealed at the head's chain position, halts with that cause.
func oldRecordAtHeadHalts(t *testing.T, fixture string) {
	t.Helper()
	old, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeDeltaRecord(old); !errors.Is(err, ErrRecordVersion) {
		t.Fatalf("decode of %s = %v, want ErrRecordVersion", fixture, err)
	}
	r := newRig(t, []uint32{1, 2})
	r.mustPut(1, "a", "1")
	head, err := foldStored(r.storage, r.admin.kp, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ad recordAD
	sealed, err := aead.Seal(r.admin.kp, old, ad.at(head.chainPrev, head.t, head.adminSeq))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.storage.Append(SegmentSlot(head.seg), sealed); err != nil {
		t.Fatal(err)
	}
	if err := r.enclave.Restart(); !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("restart over %s = %v, want a halt", fixture, err)
	}
	var halt *tee.HaltError
	if err := r.enclave.HaltedErr(); !errors.Is(err, ErrRecordVersion) || !errors.As(err, &halt) || halt.Reason != "delta record version unknown" {
		t.Fatalf("halt = %v, want ErrRecordVersion", err)
	}
}

// Every part of a record's chain position is sealed into its associated
// data: the stored chain, folded from a base whose head (Prev), sequence
// number (FromT) or admin sequence number is off, halts on its first
// record as one that failed authentication. Unmoved, it folds.
func TestRecordADBindsChainPosition(t *testing.T) {
	r := newRig(t, []uint32{1, 2})
	r.mustPut(1, "a", "1")
	r.mustPut(2, "b", "2")
	if _, err := foldStored(r.storage, r.admin.kp, nil); err != nil {
		t.Fatalf("fold at the sealed position: %v", err)
	}
	for _, tc := range []struct {
		name string
		move func(*trustedState)
	}{
		{"Prev", func(s *trustedState) { s.Head[0] ^= 1 }},
		{"FromT", func(s *trustedState) { s.SeqT++ }},
		{"AdminSeq", func(s *trustedState) { s.AdminSeq++ }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := foldStored(r.storage, r.admin.kp, tc.move)
			var halt *tee.HaltError
			if !errors.As(err, &halt) || halt.Reason != "delta record failed authentication" || !errors.Is(err, aead.ErrAuth) {
				t.Fatalf("fold at a wrong %s = %v, want a halt on authentication", tc.name, err)
			}
		})
	}
}

// A restart over a log segment written before log files carried a header
// (the committed fixture) reports stablestore.ErrLogVersion; the segment
// is not read as an empty log, which clients would report as a rollback.
func TestUnversionedSegmentFailsRestartWithErrLogVersion(t *testing.T) {
	dir := t.TempDir()
	store, err := stablestore.NewFileStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := newRigOver(t, store, []uint32{1, 2}, nil)
	r.mustPut(1, "a", "1")
	r.enclave.Stop()
	old, err := os.ReadFile("../stablestore/testdata/segment-unversioned.log")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, SlotDeltaLog+".log"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := stablestore.NewFileStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	enclave := r.platform.NewEnclave(NewTrustedFactory(TrustedConfig{
		ServiceName: "kvs",
		NewService:  kvs.Factory(),
		Attestation: r.attestation,
	}), reopened)
	if err := enclave.Start(); !errors.Is(err, stablestore.ErrLogVersion) {
		t.Fatalf("start over an unversioned segment = %v, want ErrLogVersion", err)
	}
	if enclave.HaltedErr() != nil {
		t.Fatalf("start halted (%v); the old segment is a format error, not an attack", enclave.HaltedErr())
	}
}
