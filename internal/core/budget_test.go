package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"lcm/internal/aead"
	"lcm/internal/kvs"
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
// enclave over the same platform and storage that compacts after every
// record, so that its first batch re-seals the whole state.
func bigStateRig(t *testing.T) *rig {
	t.Helper()
	r := newRigWith(t, []uint32{1}, func(cfg *TrustedConfig) { cfg.CompactEvery = 1 << 30 })
	value := strings.Repeat("v", budgetValue)
	for i := 0; i < budgetKeys; i++ {
		r.mustPut(1, fmt.Sprintf("key%05d", i), value)
	}
	r.enclave.Stop()
	r.enclave = r.platform.NewEnclave(NewTrustedFactory(TrustedConfig{
		ServiceName:  "kvs",
		NewService:   kvs.Factory(),
		Attestation:  r.attestation,
		CompactEvery: 1,
	}), r.storage)
	if err := r.enclave.Start(); err != nil {
		t.Fatal(err)
	}
	return r
}

// compactingPut runs one put that the enclave must answer with a
// compaction, persists it like the honest host, and reports the sealed
// blob and what the ecall plus the host's decode of its response
// allocated.
func (r *rig) compactingPut(key string) (blob []byte, bytes, objects uint64) {
	r.t.Helper()
	c := r.clients[1]
	invoke, err := c.Invoke(kvs.Put(key, "compacted"))
	if err != nil {
		r.t.Fatal(err)
	}
	payload := EncodeBatchCall([][]byte{invoke})
	var batch *BatchResult
	bytes, objects = allocated(func() {
		var resp []byte
		if resp, err = r.enclave.Call(payload); err == nil {
			batch, err = DecodeBatchResult(resp)
		}
	})
	if err != nil {
		r.t.Fatal(err)
	}
	if !batch.Compact || len(batch.StateBlob) == 0 {
		r.t.Fatal("the batch did not compact")
	}
	if err := r.persistBatch(batch); err != nil {
		r.t.Fatal(err)
	}
	if _, err := c.ProcessReply(batch.Replies[0]); err != nil {
		r.t.Fatal(err)
	}
	return batch.StateBlob, bytes, objects
}

// A compacting batch allocates three state-sized buffers: the service's
// snapshot, the blob it is encoded and sealed in, and the ecall response.
// Besides them it may allocate the snapshot's sorted key index (one string
// header per key) and a few KiB per call. A snapshot writer that regrows
// from a guess, or a seal into a buffer of its own, breaks the budget.
func TestCompactionAllocBudget(t *testing.T) {
	r := bigStateRig(t)
	blob, bytes, _ := r.compactingPut("key00000")
	budget := 3*uint64(len(blob)) + 16*budgetKeys + 8<<10
	t.Logf("compacting batch: %d bytes = %.3f× the %d-byte blob", bytes, float64(bytes)/float64(len(blob)), len(blob))
	if bytes > budget {
		t.Fatalf("a compacting batch allocated %d bytes = %.2f× its %d-byte blob, budget %d", bytes, float64(bytes)/float64(len(blob)), len(blob), budget)
	}
}

// A restart over a compacted state allocates the loaded blob, its
// plaintext and the restored entries: at most 3.5× the blob, and at most
// two objects (key and value) per restored kvs entry plus a constant. A
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

// The sealed format is unchanged: a state blob sealed as earlier versions
// sealed it (aead.Seal over the encoded state, in a buffer of its own)
// restores, and the chain continues from it across a further restart.
func TestStateBlobSealedBySealRestores(t *testing.T) {
	r := newRigWith(t, []uint32{1, 2}, func(cfg *TrustedConfig) { cfg.CompactEvery = 1 })
	r.mustPut(1, "a", "1") // a delta record
	r.mustPut(2, "b", "2") // a compaction: the blob holds everything, the log is empty
	if log, err := r.storage.LoadLog(SlotDeltaLog); err != nil || len(log) != 0 {
		t.Fatalf("log after compaction = %d records, %v", len(log), err)
	}
	blob, err := r.storage.Load(SlotStateBlob)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := aead.Open(r.admin.kp, blob, []byte(adStateBlob))
	if err != nil {
		t.Fatal(err)
	}
	state, err := decodeTrustedState(plain)
	if err != nil {
		t.Fatal(err)
	}
	old, err := aead.Seal(r.admin.kp, state.encode(), []byte(adStateBlob))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.storage.Store(SlotStateBlob, old); err != nil {
		t.Fatal(err)
	}
	if err := r.enclave.Restart(); err != nil {
		t.Fatalf("restart over an aead.Seal blob: %v", err)
	}
	r.mustPut(2, "c", "3") // a delta record chained to the old blob's hash
	if err := r.enclave.Restart(); err != nil {
		t.Fatalf("restart folding onto an aead.Seal blob: %v", err)
	}
	for key, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		if kv, _ := r.mustGet(1, key); string(kv.Value) != want {
			t.Fatalf("get %s = %q, want %q", key, kv.Value, want)
		}
	}
}
