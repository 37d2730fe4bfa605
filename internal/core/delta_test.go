package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"lcm/internal/kvs"
	"lcm/internal/service"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/wire"
)

// newRigWith builds a rig like newRig but lets the test tune the trusted
// configuration (compaction thresholds, fullSeal).
func newRigWith(t *testing.T, clientIDs []uint32, tune func(*TrustedConfig)) *rig {
	t.Helper()
	return newRigOver(t, stablestore.NewMemStore(), clientIDs, tune)
}

// newRigOver is newRigWith over the given store.
func newRigOver(t *testing.T, store stablestore.Store, clientIDs []uint32, tune func(*TrustedConfig)) *rig {
	t.Helper()
	attestation := tee.NewAttestationService()
	platform, err := tee.NewPlatform("plat-delta")
	if err != nil {
		t.Fatal(err)
	}
	attestation.Register(platform)
	storage := stablestore.NewRollbackStore(store)
	cfg := TrustedConfig{
		ServiceName: "kvs",
		NewService:  kvs.Factory(),
		Attestation: attestation,
	}
	if tune != nil {
		tune(&cfg)
	}
	enclave := platform.NewEnclave(NewTrustedFactory(cfg), storage)
	if err := enclave.Start(); err != nil {
		t.Fatal(err)
	}
	admin := NewAdmin(attestation, ProgramIdentity("kvs"))
	if err := admin.Bootstrap(enclave.Call, clientIDs); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	clients := make(map[uint32]*Client, len(clientIDs))
	for _, id := range clientIDs {
		clients[id] = NewClient(id, admin.CommunicationKey())
	}
	return &rig{
		t:           t,
		platform:    platform,
		attestation: attestation,
		storage:     storage,
		enclave:     enclave,
		admin:       admin,
		clients:     clients,
	}
}

// fullSealKVS is kvs without service.DeltaService: a context over it seals
// its whole state on every batch, as the paper's Sec. 5.2 prototype does.
type fullSealKVS struct{ service.Service }

// fullSeal tunes a rig's context to serve fullSealKVS.
func fullSeal(cfg *TrustedConfig) {
	cfg.NewService = func() service.Service { return fullSealKVS{kvs.New()} }
}

// goldenDeltaRecord is the record the golden round-trip test encodes; the
// decoder's fuzz target starts from it too. Every optional field is
// present.
func goldenDeltaRecord() *deltaRecord {
	return &deltaRecord{
		FromT: 7,
		ToT:   9,
		Entries: map[uint32]*ventry{
			2: {TA: 5, T: 8, Reply: testReply("reply-2")},
			1: {TA: 7, T: 9, Reply: testReply("reply-1")},
		},
		Anchors:    true,
		Delta:      []byte("service-delta"),
		BeaconSeq:  4,
		BeaconTick: 5,
		Removed:    []uint32{3, 6},
		GroupEpoch: 2,
		QFloor:     8,
	}
}

func (d *deltaRecord) encode() []byte {
	w := wire.NewWriter(d.encodedSize())
	d.encodeTo(w)
	return w.Bytes()
}

func TestDeltaRecordRoundtrip(t *testing.T) {
	rec := goldenDeltaRecord()
	enc := rec.encode()
	got, err := decodeDeltaRecord(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	// FromT is in the associated data, not in the encoding.
	gotFields, wantFields := *got, *rec
	gotFields.Entries, wantFields.Entries, wantFields.FromT = nil, nil, 0
	if fmt.Sprintf("%+v", gotFields) != fmt.Sprintf("%+v", wantFields) || len(got.Entries) != 2 {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, rec)
	}
	for id, e := range rec.Entries {
		if g := got.Entries[id]; g.TA != e.TA || g.T != e.T || !bytes.Equal(g.Reply, e.Reply) {
			t.Fatalf("entry %d = %+v, want %+v", id, g, e)
		}
	}
	if _, err := decodeDeltaRecord(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated record decoded")
	}
}

// Batches persist as chained log appends: the state-blob slot stays at its
// bootstrap version while the log grows one record per batch, and an
// honest restart folds the chain back exactly.
func TestDeltaBatchesAppendAndRecover(t *testing.T) {
	r := newRig(t, []uint32{1, 2})
	for i := 0; i < 4; i++ {
		r.mustPut(1, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	r.mustPut(2, "k0", "overwritten")

	if got := r.storage.Versions(SlotStateBlob); got != 1 {
		t.Fatalf("state blob written %d times, want 1 (bootstrap only)", got)
	}
	if got := r.storage.LogLen(SlotDeltaLog); got != 5 {
		t.Fatalf("delta log has %d records, want 5", got)
	}

	// Restart mid-log: recovery folds base + 5 records.
	if err := r.enclave.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	status, err := QueryStatus(r.enclave.Call)
	if err != nil || status.Seq != 5 {
		t.Fatalf("recovered seq = %v, %v; want 5", status, err)
	}
	kv, _ := r.mustGet(1, "k0")
	if !kv.Found || string(kv.Value) != "overwritten" {
		t.Fatalf("folded state read = %+v", kv)
	}
	kv, _ = r.mustGet(2, "k3")
	if !kv.Found || string(kv.Value) != "v3" {
		t.Fatalf("folded state read = %+v", kv)
	}
}

// Crossing the record threshold cuts a checkpoint; once it is stored the
// segments below it are dropped, the chain continues in the next segment,
// and recovery keeps working.
func TestDeltaCompactionTruncatesAndRechains(t *testing.T) {
	r := newRigWith(t, []uint32{1}, func(cfg *TrustedConfig) { cfg.cutRecords = 3 })
	for i := 1; i <= 8; i++ {
		r.mustPut(1, "k", fmt.Sprintf("v%d", i))
	}
	// Every batch appends; batches 3 and 6 cut, and their checkpoints
	// drop the segments below them, leaving records 7 and 8.
	if got := r.storage.Versions(SlotStateBlob); got != 3 {
		t.Fatalf("state blob versions = %d, want 3 (bootstrap + 2 checkpoints)", got)
	}
	if got := r.chainRecords(); got != 2 {
		t.Fatalf("chain after the checkpoints = %d records, want 2", got)
	}
	if got := r.storage.LogLen(SegmentSlot(0)) + r.storage.LogLen(SegmentSlot(1)); got != 0 {
		t.Fatalf("segments below the checkpoint hold %d records, want 0", got)
	}
	if err := r.enclave.Restart(); err != nil {
		t.Fatalf("Restart after compaction: %v", err)
	}
	r.mustPut(1, "k", "v9")
	if err := r.enclave.Restart(); err != nil {
		t.Fatal(err)
	}
	kv, _ := r.mustGet(1, "k")
	if string(kv.Value) != "v9" {
		t.Fatalf("state after compaction cycle = %q", kv.Value)
	}
	status, _ := QueryStatus(r.enclave.Call)
	if status.Seq != 10 {
		t.Fatalf("seq = %d, want 10", status.Seq)
	}
}

// The default adaptive policy compacts once the chain's sealed bytes
// exceed CompactRatio × the observed snapshot size (after the record
// floor), and then leaves a proportionally larger chain alone once the
// snapshot itself has grown.
func TestAdaptiveCompactionTracksSnapshotRatio(t *testing.T) {
	r := newRig(t, []uint32{1}) // no explicit thresholds → adaptive
	// Small state, small snapshot: delta records (each carrying a reply
	// ciphertext) outweigh the snapshot quickly, so the chain compacts
	// soon after the CompactMinRecords floor.
	for i := 0; i < CompactMinRecords+4; i++ {
		r.mustPut(1, "k", fmt.Sprintf("v%d", i))
	}
	status, err := QueryStatus(r.enclave.Call)
	if err != nil {
		t.Fatal(err)
	}
	if status.Compactions == 0 {
		t.Fatalf("tiny-state chain never compacted: %+v", status)
	}
	if got := r.chainRecords(); got >= CompactMinRecords+4 {
		t.Fatalf("log holds %d records; compaction never truncated", got)
	}

	// Grow the state so the snapshot dwarfs per-batch deltas: the same
	// record count must no longer trigger a compaction.
	big := string(make([]byte, 32<<10))
	r.mustPut(1, "big", big)
	// Ensure the chain restarts at a fresh large snapshot.
	for r.chainRecords() != 1 {
		r.mustPut(1, "warm", "x")
	}
	before, _ := QueryStatus(r.enclave.Call)
	for i := 0; i < CompactMinRecords+4; i++ {
		r.mustPut(1, "k", fmt.Sprintf("w%d", i))
	}
	after, _ := QueryStatus(r.enclave.Call)
	if after.Compactions != before.Compactions {
		t.Fatalf("large-state chain compacted after %d small batches (snapshot=%dB chain=%dB)",
			CompactMinRecords+4, after.SnapshotBytes, after.ChainBytes)
	}
	if after.ChainLen <= before.ChainLen {
		t.Fatalf("chain did not grow: before=%d after=%d", before.ChainLen, after.ChainLen)
	}
	// And recovery still folds the longer chain exactly.
	if err := r.enclave.Restart(); err != nil {
		t.Fatal(err)
	}
	kv, _ := r.mustGet(1, "k")
	if string(kv.Value) != fmt.Sprintf("w%d", CompactMinRecords+3) {
		t.Fatalf("recovered value = %q", kv.Value)
	}
}

// Status surfaces the persistence pipeline's observables: chain length and
// bytes track appended records and reset at a cut, and the snapshot size
// and checkpoint history are reported.
func TestStatusReportsChainAndCompaction(t *testing.T) {
	r := newRigWith(t, []uint32{1}, func(cfg *TrustedConfig) { cfg.cutRecords = 4 })
	status, err := QueryStatus(r.enclave.Call)
	if err != nil {
		t.Fatal(err)
	}
	if !status.DeltaActive || status.ChainLen != 0 || status.ChainBytes != 0 || status.SnapshotBytes == 0 {
		t.Fatalf("bootstrap status = %+v", status)
	}
	for i := 1; i <= 3; i++ {
		r.mustPut(1, "k", fmt.Sprintf("v%d", i))
		status, _ = QueryStatus(r.enclave.Call)
		if status.ChainLen != i {
			t.Fatalf("after %d batches ChainLen = %d", i, status.ChainLen)
		}
		if status.ChainBytes <= 0 {
			t.Fatalf("ChainBytes = %d after %d batches", status.ChainBytes, i)
		}
	}
	r.mustPut(1, "k", "v4") // the fourth record reaches the threshold and cuts
	status, _ = QueryStatus(r.enclave.Call)
	if status.ChainLen != 0 || status.ChainBytes != 0 {
		t.Fatalf("chain not reset at the cut: %+v", status)
	}
	if status.Compactions != 1 || status.LastCompactSeq != 4 {
		t.Fatalf("checkpoint stats = %+v", status)
	}
	r.mustPut(1, "k", "v5") // the next record starts the new chain
	if status, _ = QueryStatus(r.enclave.Call); status.ChainLen != 1 {
		t.Fatalf("ChainLen after the cut = %d, want 1", status.ChainLen)
	}
}

// A migration carries the delta chain, not the state: the host stages the
// origin's sealed blob + log, the piece the origin seals pins only kP, the
// head and the pending delta, and the target folds the copy and seals one
// fresh blob under its own keys. Compaction then runs on the target's own
// chain, and the target restarts from it.
func TestMigrationCarriesDeltaChainAndResumesCompaction(t *testing.T) {
	tune := func(cfg *TrustedConfig) { cfg.cutRecords = 4 }
	r := newRigWith(t, []uint32{1}, tune)
	big := strings.Repeat("x", 4096)
	r.mustPut(1, "big", big)
	r.mustPut(1, "k", "v2")

	target, err := tee.NewPlatform("plat-migrate-2")
	if err != nil {
		t.Fatal(err)
	}
	r.attestation.Register(target)
	cfg := TrustedConfig{ServiceName: "kvs", NewService: kvs.Factory(), Attestation: r.attestation}
	tune(&cfg)
	targetStorage := stablestore.NewRollbackStore(stablestore.NewMemStore())
	targetEnclave := target.NewEnclave(NewTrustedFactory(cfg), targetStorage)
	if err := targetEnclave.Start(); err != nil {
		t.Fatal(err)
	}
	_, export, err := r.reshardOnto([]*tee.Enclave{targetEnclave}, []stablestore.Store{targetStorage}, nil, nil)
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if n := len(export.Pieces[0]); n >= len(big) {
		t.Fatalf("the sealed piece is %d B: the state crossed the channel", n)
	}
	if got := targetStorage.Versions(SlotStateBlob); got != 1 {
		t.Fatalf("target state blob written %d times, want 1 (the import's)", got)
	}
	status, err := QueryStatus(targetEnclave.Call)
	if err != nil {
		t.Fatal(err)
	}
	if status.Seq != 0 || status.ChainLen != 0 || status.Gen != 1 {
		t.Fatalf("imported status = %+v, want a fresh chain at generation 1", status)
	}

	// The client continues against the target; its 4th record cuts.
	c, _, err := adopt(r.clients[1], r.admin.CommunicationKey(), export, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr := &rig{t: t, storage: targetStorage, enclave: targetEnclave, clients: map[uint32]*Client{1: c}}
	for i := 3; i <= 6; i++ {
		tr.mustPut(1, "k", fmt.Sprintf("v%d", i))
	}
	status, _ = QueryStatus(targetEnclave.Call)
	if status.Compactions != 1 {
		t.Fatalf("migrated-in enclave did not compact: %+v", status)
	}
	if got := tr.chainRecords(); got > 1 {
		t.Fatalf("target log holds %d records after compaction", got)
	}

	// And the target restarts from its own storage.
	if err := targetEnclave.Restart(); err != nil {
		t.Fatalf("target restart: %v", err)
	}
	if kv, _ := tr.mustGet(1, "k"); string(kv.Value) != "v6" {
		t.Fatalf("migrated+compacted value = %q", kv.Value)
	}
	if kv, _ := tr.mustGet(1, "big"); string(kv.Value) != big {
		t.Fatalf("migrated big value has %d bytes", len(kv.Value))
	}
}

// beacon commits one heartbeat beacon as the host does: the record is
// persisted, then the reserved counter tick confirmed.
func (r *rig) beacon() error {
	resp, err := r.enclave.Call(EncodeBeaconCall())
	if err != nil {
		return err
	}
	batch, err := DecodeBatchResult(resp)
	if err == nil {
		err = r.persistBatch(batch)
	}
	if err == nil {
		_, err = r.enclave.Call(EncodeBeaconConfirmCall())
	}
	return err
}

// A migration target beacons on its own platform's counter with no
// rebase: the target mints a fresh kP, and the counter is keyed by kP.
// Restarted before its first beacon, the target's next beacon is not a
// clone verdict, though the origin had beaconed.
func TestMigrationTargetBeaconsOnFreshCounter(t *testing.T) {
	r := newRig(t, []uint32{1})
	r.mustPut(1, "k", "v1")
	for i := 0; i < 3; i++ {
		if err := r.beacon(); err != nil {
			t.Fatalf("origin beacon %d: %v", i, err)
		}
	}
	target, err := tee.NewPlatform("plat-migrate-beacon")
	if err != nil {
		t.Fatal(err)
	}
	r.attestation.Register(target)
	tr, err := r.migrate(target, stablestore.NewRollbackStore(stablestore.NewMemStore()), kvsConfig())
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if err := tr.enclave.Restart(); err != nil {
		t.Fatalf("target restart: %v", err)
	}
	if err := tr.beacon(); err != nil {
		t.Fatalf("first beacon after migration and restart: %v", err)
	}
	if kv, _ := tr.mustGet(1, "k"); string(kv.Value) != "v1" {
		t.Fatalf("migrated value = %q", kv.Value)
	}
}

// An admin-recovered context seals the beacon tick it rebases on its new
// platform's counter, as a record or, over a service without deltas
// (fullSeal), in the state blob: restarted before its first beacon, it
// folds that tick, not the old platform's, and its next beacon is not a
// clone verdict.
func TestRecoverSealsRebasedBeaconTick(t *testing.T) {
	for _, tune := range []func(*TrustedConfig){nil, fullSeal} {
		t.Run(fmt.Sprintf("fullSeal=%v", tune != nil), func(t *testing.T) {
			r := newRigWith(t, []uint32{1}, tune)
			r.mustPut(1, "k", "v1")
			for i := 0; i < 3; i++ {
				if err := r.beacon(); err != nil {
					t.Fatalf("origin beacon %d: %v", i, err)
				}
			}
			fresh, err := tee.NewPlatform("plat-recover-beacon")
			if err != nil {
				t.Fatal(err)
			}
			r.attestation.Register(fresh)
			tr := &rig{t: t, storage: stablestore.NewRollbackStore(stablestore.NewMemStore()), clients: r.clients}
			cfg := TrustedConfig{ServiceName: "kvs", NewService: kvs.Factory(), Attestation: r.attestation}
			if tune != nil {
				tune(&cfg)
			}
			tr.enclave = fresh.NewEnclave(NewTrustedFactory(cfg), tr.storage)
			if err := tr.enclave.Start(); err != nil {
				t.Fatal(err)
			}
			copySealedState(t, tr.storage, r.storage)
			if err := r.admin.Recover(tr.enclave.Call); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if tune != nil {
				// A service without deltas keeps its state in the blob alone.
				blob, err := tr.storage.Load(SlotStateBlob)
				if err != nil {
					t.Fatal(err)
				}
				seg, _ := BlobSegment(blob)
				if log, _ := tr.storage.LoadLog(SegmentSlot(seg)); len(log) != 0 {
					t.Fatalf("full-seal recovery appended %d delta record(s)", len(log))
				}
			}
			if err := tr.enclave.Restart(); err != nil {
				t.Fatalf("restart after recovery: %v", err)
			}
			if err := tr.beacon(); err != nil {
				t.Fatalf("first beacon after recovery and restart: %v", err)
			}
			if kv, _ := tr.mustGet(1, "k"); string(kv.Value) != "v1" {
				t.Fatalf("recovered value = %q", kv.Value)
			}
		})
	}
}

// A host that stages a truncated copy of the chain is refused at import:
// the fold does not reach the head the origin pinned in its piece.
func TestMigrationChainTruncatedCopyRefused(t *testing.T) {
	r := newRig(t, []uint32{1})
	r.mustPut(1, "k", "v1")
	r.mustPut(1, "k", "v2")
	r.mustPut(1, "k", "v3")

	target, err := tee.NewPlatform("plat-migrate-3")
	if err != nil {
		t.Fatal(err)
	}
	r.attestation.Register(target)
	targetStorage := stablestore.NewMemStore()
	targetEnclave := target.NewEnclave(NewTrustedFactory(TrustedConfig{
		ServiceName: "kvs",
		NewService:  kvs.Factory(),
		Attestation: r.attestation,
	}), targetStorage)
	if err := targetEnclave.Start(); err != nil {
		t.Fatal(err)
	}

	// The host copies the blob but withholds the last delta record.
	truncated := func(dst stablestore.Store) {
		copySealedState(t, dst, r.storage)
		log, _ := dst.LoadLog(SlotDeltaLog)
		if err := dst.TruncateLog(SlotDeltaLog); err != nil {
			t.Fatal(err)
		}
		if err := dst.AppendGroup(SlotDeltaLog, log[:len(log)-1]); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = r.reshardOnto([]*tee.Enclave{targetEnclave}, []stablestore.Store{targetStorage}, nil, truncated)
	if err == nil || !strings.Contains(err.Error(), "staged chain does not reach the source's exported head") {
		t.Fatalf("import of a truncated chain copy = %v", err)
	}
	status, err := QueryStatus(targetEnclave.Call)
	if err != nil {
		t.Fatal(err)
	}
	if status.Provisioned {
		t.Fatal("target claims provisioned after refused import")
	}
}

// Dropping an interior record (or reordering) breaks the hash chain and
// halts recovery — the host cannot splice the log.
func TestDeltaLogSpliceHaltsRecovery(t *testing.T) {
	r := newRig(t, []uint32{1})
	for i := 0; i < 3; i++ {
		r.mustPut(1, "k", fmt.Sprintf("v%d", i))
	}
	log, err := r.storage.LoadLog(SlotDeltaLog)
	if err != nil || len(log) != 3 {
		t.Fatalf("log = %d records, %v", len(log), err)
	}
	// Malicious host: rebuild the log without the middle record.
	if err := r.storage.TruncateLog(SlotDeltaLog); err != nil {
		t.Fatal(err)
	}
	r.storage.Append(SlotDeltaLog, log[0])
	r.storage.Append(SlotDeltaLog, log[2])
	if err := r.enclave.Restart(); !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("restart over spliced log = %v, want halt", err)
	}
}

// A tampered record fails AEAD authentication and halts recovery.
func TestDeltaLogTamperHaltsRecovery(t *testing.T) {
	r := newRig(t, []uint32{1})
	r.mustPut(1, "k", "v")
	log, _ := r.storage.LoadLog(SlotDeltaLog)
	if err := r.storage.TruncateLog(SlotDeltaLog); err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), log[0]...)
	tampered[len(tampered)/2] ^= 0x01
	r.storage.Append(SlotDeltaLog, tampered)
	if err := r.enclave.Restart(); !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("restart over tampered log = %v, want halt", err)
	}
}

// A crash between a checkpoint's blob store and the drop of the segments
// below it leaves a segment the new blob no longer names. Recovery must
// ignore it (the blob already contains everything) and resume seamlessly
// — a benign crash must never halt the enclave — and the next checkpoint
// drops it.
func TestDeltaStaleLogAfterCompactionCrashDiscarded(t *testing.T) {
	r := newRigWith(t, []uint32{1}, func(cfg *TrustedConfig) { cfg.cutRecords = 2 })
	c := r.clients[1]
	r.mustPut(1, "k", "v1") // record 1, segment 0

	// Batch 2 cuts. Play a host that crashed after storing the checkpoint
	// but before dropping segment 0.
	inv, err := c.Invoke(kvs.Put("k", "v2"))
	if err != nil {
		t.Fatal(err)
	}
	batch := r.call(inv)
	if !batch.Cut || batch.Seg != 0 {
		t.Fatalf("second batch did not cut segment 0: %+v", batch)
	}
	if err := r.storage.Append(SegmentSlot(0), batch.DeltaRecord); err != nil {
		t.Fatal(err)
	}
	if err := r.storage.Store(SlotStateBlob, r.sealCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	// ... crash: segment 0 stays, enclave restarts.
	if _, err := c.ProcessReply(batch.Replies[0]); err != nil {
		t.Fatal(err)
	}
	if err := r.enclave.Restart(); err != nil {
		t.Fatalf("restart with a stale segment = %v, want clean recovery", err)
	}
	status, err := QueryStatus(r.enclave.Call)
	if err != nil || status.Seq != 2 || status.ChainLen != 0 {
		t.Fatalf("recovered status = %+v, %v; want seq 2 from the checkpoint alone", status, err)
	}
	kv, _ := r.mustGet(1, "k") // record 3, segment 1
	if string(kv.Value) != "v2" {
		t.Fatalf("value = %q, want v2", kv.Value)
	}
	if got := r.storage.LogLen(SegmentSlot(0)); got != 2 {
		t.Fatalf("stale segment 0 holds %d records, want the 2 the crash left", got)
	}
	r.mustPut(1, "k", "v4") // record 4 cuts: its checkpoint drops segments 0 and 1
	if got := r.storage.LogLen(SegmentSlot(0)); got != 0 {
		t.Fatalf("stale segment 0 still holds %d records after the next checkpoint", got)
	}
	if err := r.enclave.Restart(); err != nil {
		t.Fatalf("second restart: %v", err)
	}
	r.mustPut(1, "k", "v5")
	status, err = QueryStatus(r.enclave.Call)
	if err != nil || status.Seq != 5 {
		t.Fatalf("seq after crash-recovery cycle = %v, %v; want 5", status, err)
	}
}

// Property: a delta-persisted deployment with random restarts at batch
// boundaries stays state-identical to a full-seal deployment (fullSealKVS,
// a kvs without deltas) driven by the same schedule — sequence numbers,
// stability, and every key.
func TestQuickDeltaMatchesFullSeal(t *testing.T) {
	check := func(seed int64, schedule []uint8) bool {
		if len(schedule) == 0 {
			return true
		}
		if len(schedule) > 50 {
			schedule = schedule[:50]
		}
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32(i + 1)
		}
		delta := newRigWith(t, ids, func(cfg *TrustedConfig) {
			cfg.cutRecords = 1 + rng.Intn(6)
		})
		full := newRigWith(t, ids, fullSeal)

		keys := []string{"a", "b", "c"}
		for _, step := range schedule {
			id := ids[int(step)%n]
			key := keys[int(step/3)%len(keys)]
			var op []byte
			switch step % 3 {
			case 0, 1:
				op = kvs.Put(key, fmt.Sprintf("v%d", step))
			default:
				op = kvs.Del(key)
			}
			resD, errD := delta.do(id, op)
			resF, errF := full.do(id, op)
			if errD != nil || errF != nil {
				t.Logf("op failed: delta=%v full=%v", errD, errF)
				return false
			}
			if resD.Seq != resF.Seq || resD.Stable != resF.Stable {
				t.Logf("divergence: delta=(%d,%d) full=(%d,%d)", resD.Seq, resD.Stable, resF.Seq, resF.Stable)
				return false
			}
			if rng.Intn(4) == 0 {
				if err := delta.enclave.Restart(); err != nil {
					t.Logf("delta restart: %v", err)
					return false
				}
			}
		}
		if err := delta.enclave.Restart(); err != nil {
			return false
		}
		for _, key := range keys {
			kvD, _ := delta.mustGet(ids[0], key)
			kvF, _ := full.mustGet(ids[0], key)
			if kvD.Found != kvF.Found || !bytes.Equal(kvD.Value, kvF.Value) {
				t.Logf("key %q: delta=%+v full=%+v", key, kvD, kvF)
				return false
			}
		}
		sD, errD := QueryStatus(delta.enclave.Call)
		sF, errF := QueryStatus(full.enclave.Call)
		return errD == nil && errF == nil && sD.Seq == sF.Seq && sD.Stable == sF.Stable
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
