package core

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"lcm/internal/aead"
	"lcm/internal/kvs"
	"lcm/internal/tee"
)

// Allocation budgets for compaction and recovery: each touches the sealed
// state a fixed number of times (state.go, "Compaction"). The store holds
// 2 000 × 1 KB, so the 2 MB state dwarfs every per-call constant.
const (
	budgetKeys  = 2000
	budgetValue = 1000
)

// allocated reports the bytes and the objects f allocates.
func allocated(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// bigStateRig loads the store through delta records, then swaps in an
// enclave over the same platform and storage that cuts a checkpoint after
// every record, so that its first batch freezes the whole state.
func bigStateRig(t *testing.T) *rig {
	t.Helper()
	r := newRigWith(t, []uint32{1}, func(cfg *TrustedConfig) { cfg.cutRecords = 1 << 30 })
	value := strings.Repeat("v", budgetValue)
	for i := 0; i < budgetKeys; i++ {
		r.mustPut(1, fmt.Sprintf("key%05d", i), value)
	}
	r.enclave.Stop()
	r.enclave = r.platform.NewEnclave(NewTrustedFactory(TrustedConfig{
		ServiceName: "kvs",
		NewService:  kvs.Factory(),
		Attestation: r.attestation,
		cutRecords:  1,
	}), r.storage)
	if err := r.enclave.Start(); err != nil {
		t.Fatal(err)
	}
	return r
}

// compactingPut runs one put that the enclave must answer with a cut,
// seals and stores the checkpoint like the honest host, and reports the
// sealed blob, what the cutting ecall allocated, and what the checkpoint
// seal and the host's decode of its response allocated.
func (r *rig) compactingPut(key string) (blob []byte, cutBytes, sealBytes uint64) {
	r.t.Helper()
	c := r.clients[1]
	invoke, err := c.Invoke(kvs.Put(key, "compacted"))
	if err != nil {
		r.t.Fatal(err)
	}
	payload := EncodeBatchCall([][]byte{invoke})
	var batch *BatchResult
	cutBytes, _ = allocated(func() {
		var resp []byte
		if resp, err = r.enclave.Call(payload); err == nil {
			batch, err = DecodeBatchResult(resp)
		}
	})
	if err != nil {
		r.t.Fatal(err)
	}
	if !batch.Cut {
		r.t.Fatal("the batch did not cut a checkpoint")
	}
	if err := r.storage.Append(SegmentSlot(batch.Seg), batch.DeltaRecord); err != nil {
		r.t.Fatal(err)
	}
	sealBytes, _ = allocated(func() { blob, err = r.enclave.BackgroundCall(EncodeCheckpointCall(batch.Seg + 1)) })
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.storeBlob(blob); err != nil {
		r.t.Fatal(err)
	}
	if _, err := c.ProcessReply(batch.Replies[0]); err != nil {
		r.t.Fatal(err)
	}
	return blob, cutBytes, sealBytes
}

// The batch that cuts a checkpoint allocates no state-sized buffer: it
// clones the service's map (a bucket array, no keys or values), its
// ordered key index (one string header per key) and V. The background
// seal allocates two state-sized buffers — the service's snapshot and the
// blob it is encoded and sealed in — and a few KiB: the snapshot walks the
// index, so it sorts no keys. A snapshot writer that regrows from a guess,
// a seal into a buffer of its own, or a sort, breaks the budget.
func TestCompactionAllocBudget(t *testing.T) {
	r := bigStateRig(t)
	blob, cut, seal := r.compactingPut("key00000")
	t.Logf("cutting batch: %d bytes = %.3f× the %d-byte blob; seal: %d bytes = %.3f×",
		cut, float64(cut)/float64(len(blob)), len(blob), seal, float64(seal)/float64(len(blob)))
	if budget := uint64(len(blob)) / 8; cut > budget {
		t.Fatalf("a cutting batch allocated %d bytes = %.2f× its %d-byte blob, budget %d", cut, float64(cut)/float64(len(blob)), len(blob), budget)
	}
	if budget := 2*uint64(len(blob)) + 8<<10; seal > budget {
		t.Fatalf("a checkpoint seal allocated %d bytes = %.2f× its %d-byte blob, budget %d", seal, float64(seal)/float64(len(blob)), len(blob), budget)
	}
}

// A restart over a compacted state allocates the loaded blob, its
// plaintext and the restored entries: at most 3.5× the blob, and at most
// two objects (key and value) per restored kvs entry plus a constant,
// which covers the key index's nodes too (one per 64 keys). A
// snapshot copied out of the plaintext, or a key or value copied twice,
// breaks the budget.
func TestRestartAllocBudget(t *testing.T) {
	r := bigStateRig(t)
	blob, _, _ := r.compactingPut("key00000")
	var err error
	bytes, objects := allocated(func() { err = r.enclave.Restart() })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("restart: %d bytes = %.3f× the %d-byte blob, %d objects", bytes, float64(bytes)/float64(len(blob)), len(blob), objects)
	if ratio := float64(bytes) / float64(len(blob)); ratio > 3.5 {
		t.Fatalf("a restart allocated %d bytes = %.2f× its %d-byte blob, budget 3.5×", bytes, ratio, len(blob))
	}
	// The constant covers the program, its channel key pair, the map's
	// buckets and V (one client here).
	if budget := uint64(2*budgetKeys + 200); objects > budget {
		t.Fatalf("a restart over %d entries allocated %d objects, budget %d", budgetKeys, objects, budget)
	}
	if kv, _ := r.mustGet(1, "key01999"); string(kv.Value) != strings.Repeat("v", budgetValue) {
		t.Fatalf("restored value = %.16q…", kv.Value)
	}
	if kv, _ := r.mustGet(1, "key00000"); string(kv.Value) != "compacted" {
		t.Fatalf("restored value = %q, want the compacted put", kv.Value)
	}
}

// A state blob in the format of builds before the version byte — one
// aead.Seal ciphertext of the encoded state, without the trailing Head —
// halts recovery with ErrStateVersion, not as a malformed or forged blob.
func TestPreVersionStateBlobFailsWithErrStateVersion(t *testing.T) {
	r := newRigWith(t, []uint32{1, 2}, func(cfg *TrustedConfig) { cfg.cutRecords = 2 })
	r.mustPut(1, "a", "1")
	r.mustPut(2, "b", "2") // cuts: the stored checkpoint holds everything
	blob, err := r.storage.Load(SlotStateBlob)
	if err != nil {
		t.Fatal(err)
	}
	state, _, err := openStateBlob(r.admin.kp, blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc := state.encode()
	old, err := aead.Seal(r.admin.kp, enc[:len(enc)-32], []byte(adStateBlob))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.storage.Store(SlotStateBlob, old); err != nil {
		t.Fatal(err)
	}
	if err := r.enclave.Restart(); !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("restart over a pre-version blob = %v, want a halt", err)
	}
	if err := r.enclave.HaltedErr(); !errors.Is(err, ErrStateVersion) {
		t.Fatalf("halt = %v, want ErrStateVersion", err)
	}
}

// A state blob written by a version-1 build (the committed fixture; its
// plaintext still carried a U32 after QFloor) fails with ErrStateVersion
// when its header is read, and halts a restart over it with that cause.
func TestVersion1StateBlobFailsWithErrStateVersion(t *testing.T) {
	oldStateBlobHalts(t, "testdata/state-blob-v1.bin")
}

// A state blob written by a version-2 build (the committed fixture, sealed
// under the zero key; its V entries kept the whole sealed reply) fails the
// same way.
func TestVersion2StateBlobFailsWithErrStateVersion(t *testing.T) {
	oldStateBlobHalts(t, "testdata/state-blob-v2.bin")
}

// oldStateBlobHalts checks that the state blob in fixture fails to open
// with ErrStateVersion, and that a restart over it halts with that cause.
func oldStateBlobHalts(t *testing.T, fixture string) {
	t.Helper()
	old, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := openStateBlob(aead.Key{}, old, nil); !errors.Is(err, ErrStateVersion) {
		t.Fatalf("open of %s = %v, want ErrStateVersion", fixture, err)
	}
	r := newRig(t, []uint32{1, 2})
	r.mustPut(1, "a", "1")
	if err := r.storage.Store(SlotStateBlob, old); err != nil {
		t.Fatal(err)
	}
	if err := r.enclave.Restart(); !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("restart over %s = %v, want a halt", fixture, err)
	}
	if err := r.enclave.HaltedErr(); !errors.Is(err, ErrStateVersion) {
		t.Fatalf("halt = %v, want ErrStateVersion", err)
	}
}
