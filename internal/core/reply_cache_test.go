package core

import (
	"bytes"
	"errors"
	"testing"

	"lcm/internal/aead"
	"lcm/internal/kvs"
	"lcm/internal/tee"
)

// executeLosingReply runs one put of client id through the enclave and
// persists its record, but returns the reply ciphertext instead of
// delivering it: the client still holds the op as pending.
func (r *rig) executeLosingReply(id uint32, key, value string) []byte {
	r.t.Helper()
	reply, _ := r.executeLosing(id, kvs.Put(key, value))
	return reply
}

// A retry whose reply was lost is answered with the ciphertext the client
// was first sent, byte for byte, after a restart too: whether the restart
// folds the op's record or loads a checkpoint whose V holds the entry.
// The client's duplicate filter on an at-least-once link relies on it.
func TestRetryAfterRestartReturnsCapturedReply(t *testing.T) {
	for _, tc := range []struct {
		name string
		tune func(*TrustedConfig)
	}{
		{"fold", nil},
		{"checkpoint", func(c *TrustedConfig) { c.cutRecords = 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRigWith(t, []uint32{1, 2}, tc.tune)
			r.mustPut(1, "k", "v1")
			r.mustPut(2, "k", "v2")
			captured := r.executeLosingReply(1, "k", "v3")
			if folds := r.chainRecords() > 0; folds != (tc.tune == nil) {
				t.Fatalf("the restart folds records: %v", folds)
			}
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

// A cached reply the context cannot re-derive is never answered: a record
// whose entry's nonce, tag or result was altered, sealed under kP at its
// chain position (so the fold accepts it), halts the retry instead of
// releasing a second message under the stored nonce.
func TestAlteredCachedReplyHaltsRetry(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   int
	}{
		{"nonce", 0},
		{"tag", replyTagAt},
		{"result", cachedReplyMin},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, []uint32{1, 2})
			r.mustPut(1, "k", "v1")
			head, err := foldStored(r.storage, r.admin.kp, nil)
			if err != nil {
				t.Fatal(err)
			}
			inv, err := r.clients[1].Invoke(kvs.Put("k", "v2"))
			if err != nil {
				t.Fatal(err)
			}
			batch := r.call(inv)
			var ad recordAD
			at := ad.at(head.chainPrev, head.t, head.adminSeq)
			plain, err := aead.Open(r.admin.kp, batch.DeltaRecord, at)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := decodeDeltaRecord(plain)
			if err != nil {
				t.Fatal(err)
			}
			rec.Entries[1].Reply[tc.at] ^= 1
			altered, err := aead.Seal(r.admin.kp, rec.encode(), at)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.storage.Append(SegmentSlot(batch.Seg), altered); err != nil {
				t.Fatal(err)
			}
			if err := r.enclave.Restart(); err != nil {
				t.Fatalf("restart over the altered record: %v", err)
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
		})
	}
}

// An epoch seal that rotates kC re-seals the cached replies under the new
// key: a remaining client that lost its reply before the rotation retries
// under the key it now holds and gets a reply it can open.
func TestRetryAcrossKeyRotation(t *testing.T) {
	r := newRig(t, []uint32{1, 2, 3})
	r.mustPut(1, "k", "v1")
	lost := r.executeLosingReply(1, "k", "v2")
	if err := r.admin.Evict(r.enclave.Call, 3); err != nil {
		t.Fatal(err)
	}
	r.sealEpoch()
	c := ResumeClient(r.clients[1].State(), r.admin.CommunicationKey())
	retry, err := c.RetryMessage()
	if err != nil {
		t.Fatal(err)
	}
	resent := r.call(retry).Replies[0]
	if bytes.Equal(resent, lost) {
		t.Fatal("the retry resent the reply sealed under the retired kC")
	}
	if res, err := c.ProcessReply(resent); err != nil || res.Seq != 2 {
		t.Fatalf("retry across the rotation: %+v, %v; want seq 2", res, err)
	}
}
