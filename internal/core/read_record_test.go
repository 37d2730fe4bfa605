package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"lcm/internal/aead"
	"lcm/internal/hashchain"
	"lcm/internal/kvs"
	"lcm/internal/service"
	"lcm/internal/tee"
)

// A lost read's retry after a restart gets the ciphertext the client was
// first sent, byte for byte: after a fold, which re-runs the get or SCAN
// its record kept as an op on the state before the batch (a later put
// changed the key since), and after a checkpoint, whose V holds the
// result.
func TestRetryAfterRestartReturnsElidedReadReply(t *testing.T) {
	for _, op := range []struct {
		name string
		op   []byte
	}{{"get", kvs.Get("k1")}, {"scan", kvs.Scan("k", 0)}} {
		for _, tc := range []struct {
			name string
			tune func(*TrustedConfig)
		}{
			{"fold", nil},
			{"checkpoint", func(c *TrustedConfig) { c.cutRecords = 1 }},
		} {
			t.Run(op.name+"/"+tc.name, func(t *testing.T) {
				r := newRigWith(t, []uint32{1, 2}, tc.tune)
				r.mustPut(1, "k1", "v1")
				r.mustPut(2, "k2", "v2")
				head, err := foldStored(r.storage, r.admin.kp, nil)
				if err != nil {
					t.Fatal(err)
				}
				captured, batch := r.executeLosing(1, op.op)
				if rec := r.openRecord(head, batch); rec.Reads[1].form != entryFirstRead {
					t.Fatalf("the %s's record keeps its result, not its op", op.name)
				}
				r.mustPut(2, "k1", "changed")
				if err := r.enclave.Restart(); err != nil {
					t.Fatal(err)
				}
				c := r.clients[1]
				retry, err := c.RetryMessage()
				if err != nil {
					t.Fatal(err)
				}
				resent := r.call(retry).Replies[0]
				if !bytes.Equal(resent, captured) {
					t.Fatalf("retry after restart resent %d bytes differing from the %d captured", len(resent), len(captured))
				}
				if res, err := c.ProcessReply(resent); err != nil || res.Seq != 3 {
					t.Fatalf("resent reply: %+v, %v; want seq 3", res, err)
				}
			})
		}
	}
}

// A read keeps its result in a record when a write ran before it in the
// batch ([put k, get k]: the fold holds no state the get ran on) and its
// op when it ran first ([get k, put k]). Both records fold to the live
// state, V's cached replies included.
func TestBatchReadKeepsOpOnlyBeforeWrites(t *testing.T) {
	f := newFoldRig(t, 1)
	f.noCheckpoints = true
	f.mustPut(1, "k", "v0")
	for _, tc := range []struct {
		name    string
		readsOp bool
		ops     func(i int) (uint32, []byte)
	}{
		{"put, get", false, func(i int) (uint32, []byte) {
			return []uint32{1, 2}[i], [][]byte{kvs.Put("k", "v1"), kvs.Get("k")}[i]
		}},
		{"get, put", true, func(i int) (uint32, []byte) {
			return []uint32{2, 1}[i], [][]byte{kvs.Get("k"), kvs.Put("k", "v2")}[i]
		}},
	} {
		head, err := foldStored(f.storage, f.admin.kp, nil)
		if err != nil {
			t.Fatal(err)
		}
		invokes := make([][]byte, 2)
		for i := range invokes {
			id, op := tc.ops(i)
			if invokes[i], err = f.clients[id].Invoke(op); err != nil {
				t.Fatal(err)
			}
		}
		batch := f.callPersist(EncodeBatchCall(invokes))
		for i := range invokes {
			id, _ := tc.ops(i)
			if _, err := f.clients[id].ProcessReply(batch.Replies[i]); err != nil {
				t.Fatal(err)
			}
		}
		if read, kept := f.openRecord(head, batch).Reads[2]; kept != tc.readsOp || kept && read.form != entryFirstRead {
			t.Fatalf("[%s]: the get keeps its op: %v (form %d), want %v", tc.name, kept, read.form, tc.readsOp)
		}
		folded, err := foldStored(f.storage, f.admin.kp, nil)
		if err == nil {
			err = sameState(f.live, folded)
		}
		if err != nil {
			t.Fatalf("[%s]: %v", tc.name, err)
		}
	}
}

// impureKVS answers a get with the number of ops it has applied appended:
// a read whose result does not depend only on the state, which breaks
// service.SnapshotReader's contract.
type impureKVS struct {
	*kvs.Store
	applied byte
}

func (s *impureKVS) Apply(op []byte) ([]byte, error) {
	s.applied++
	result, err := s.Store.Apply(op)
	if kvs.ReadOnly(op) {
		result = append(result, s.applied)
	}
	return result, err
}

// A read the fold cannot reproduce is never answered: the retry of a lost
// get from a service that breaks the contract halts the context, because
// the rebuilt result does not re-seal to the stored tag; it does not send
// a second plaintext under the used nonce.
func TestImpureReadHaltsRetry(t *testing.T) {
	r := newRigWith(t, []uint32{1, 2}, func(c *TrustedConfig) {
		c.NewService = func() service.Service { return &impureKVS{Store: kvs.New()} }
	})
	r.mustPut(1, "k", "v1")
	r.mustPut(2, "k", "v2")
	r.executeLosing(1, kvs.Get("k"))
	if err := r.enclave.Restart(); err != nil {
		t.Fatal(err)
	}
	retry, err := r.clients[1].RetryMessage()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := r.enclave.Call(EncodeBatchCall([][]byte{retry}))
	if !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("retry = %d bytes, %v; want a halt", len(resp), err)
	}
	var halt *tee.HaltError
	if err := r.enclave.HaltedErr(); !errors.As(err, &halt) || halt.Reason != "cached reply does not reconstruct" || !errors.Is(err, aead.ErrAuth) {
		t.Fatalf("halt = %v", err)
	}
}

// A record's entry forms round trip: an entry keeping a read's op, with
// or without its (T, H). Two entries of the batch's first op, or an
// unknown form, do not decode.
func TestDeltaRecordReadEntries(t *testing.T) {
	rec := readRecord()
	enc := rec.encode()
	got, err := decodeDeltaRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Reads) != fmt.Sprint(rec.Reads) || got.Entries[2].T != 0 || got.Entries[1].T != rec.Entries[1].T {
		t.Fatalf("reads %v, entry T %d and %d; want %v, 0 and %d", got.Reads, got.Entries[2].T, got.Entries[1].T, rec.Reads, rec.Entries[1].T)
	}
	if !bytes.Equal(got.encode(), enc) {
		t.Fatal("round trip changed the record")
	}
	unknown := bytes.Clone(enc)
	unknown[2+8+4+4] = entryFirstRead + 1 // entry 1's form, after its id
	twice := readRecord()
	twice.Reads[1] = readOp{op: twice.Reads[1].op, form: entryFirstRead}
	for name, bad := range map[string][]byte{"unknown form": unknown, "two first ops": twice.encode()} {
		if _, err := decodeDeltaRecord(bad); err == nil {
			t.Fatalf("%s decoded", name)
		}
	}
}

// A client whose read and then write run in one batch (its second op
// rides in with its first) leaves its entry at the write: the record
// keeps the result, not the read's op, and folds to the live state.
func TestBatchClientReadThenWriteKeepsResult(t *testing.T) {
	f := newFoldRig(t, 2)
	f.noCheckpoints = true
	f.mustPut(1, "k", "v0")
	head, err := foldStored(f.storage, f.admin.kp, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, get := f.clients[2], kvs.Get("k")
	first, err := c.Invoke(get)
	if err != nil {
		t.Fatal(err)
	}
	// The client's context after its get's reply, which it has not read.
	c.pending, c.tc = nil, f.live.t+1
	c.hc = hashchain.Extend(f.live.h, get, c.tc, 2)
	second, err := c.Invoke(kvs.Put("k", "v1"))
	if err != nil {
		t.Fatal(err)
	}
	batch := f.callPersist(EncodeBatchCall([][]byte{first, second}))
	if _, err := c.ProcessReply(batch.Replies[1]); err != nil {
		t.Fatal(err)
	}
	if read, kept := f.openRecord(head, batch).Reads[2]; kept {
		t.Fatalf("the put's entry keeps the get's op (form %d)", read.form)
	}
	folded, err := foldStored(f.storage, f.admin.kp, nil)
	if err == nil {
		err = sameState(f.live, folded)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// readRecord is goldenDeltaRecord with both entries keeping a read's op:
// entry 2's the batch's first (T = FromT+1), entry 1's a later one.
func readRecord() *deltaRecord {
	rec := goldenDeltaRecord()
	rec.Entries[1].Reply = testReply("")
	rec.Entries[2].Reply = testReply("")
	rec.Reads = map[uint32]readOp{1: {op: kvs.Scan("k", 3), form: entryRead}, 2: {op: kvs.Get("k"), form: entryFirstRead}}
	return rec
}

// executeLosing runs op of client id through the enclave and persists its
// record, but returns the reply ciphertext (and the batch) instead of
// delivering it: the client still holds the op as pending.
func (r *rig) executeLosing(id uint32, op []byte) ([]byte, *BatchResult) {
	r.t.Helper()
	inv, err := r.clients[id].Invoke(op)
	if err != nil {
		r.t.Fatal(err)
	}
	batch := r.call(inv)
	if err := r.persistBatch(batch); err != nil {
		r.t.Fatal(err)
	}
	return batch.Replies[0], batch
}

// openRecord opens the record of batch, sealed at head's chain position.
func (r *rig) openRecord(head *Trusted, batch *BatchResult) *deltaRecord {
	r.t.Helper()
	var ad recordAD
	plain, err := aead.Open(r.admin.kp, batch.DeltaRecord, ad.at(head.chainPrev, head.t, head.adminSeq))
	if err != nil {
		r.t.Fatal(err)
	}
	rec, err := decodeDeltaRecord(plain)
	if err != nil {
		r.t.Fatal(err)
	}
	return rec
}
