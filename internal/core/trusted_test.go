package core

import (
	"errors"
	"fmt"
	"testing"

	"lcm/internal/aead"
	"lcm/internal/kvs"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
)

// rig wires a trusted LCM context to a simulated platform with
// attacker-controllable storage, plus a bootstrapped admin and clients.
type rig struct {
	t           testing.TB
	platform    *tee.Platform
	attestation *tee.AttestationService
	storage     *stablestore.RollbackStore
	enclave     *tee.Enclave
	admin       *Admin
	clients     map[uint32]*Client
	// noCheckpoints plays a host whose checkpoint blob writes all fail:
	// the bootstrap blob stays, and the chain runs on across segments.
	noCheckpoints bool
}

func newRig(t testing.TB, clientIDs []uint32) *rig {
	t.Helper()
	attestation := tee.NewAttestationService()
	platform, err := tee.NewPlatform("plat-1")
	if err != nil {
		t.Fatal(err)
	}
	attestation.Register(platform)
	storage := stablestore.NewRollbackStore(stablestore.NewMemStore())
	factory := NewTrustedFactory(TrustedConfig{
		ServiceName: "kvs",
		NewService:  kvs.Factory(),
		Attestation: attestation,
	})
	enclave := platform.NewEnclave(factory, storage)
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

// do runs one client operation through the enclave (batch of one) and the
// honest-host storage protocol.
func (r *rig) do(clientID uint32, op []byte) (*Result, error) {
	c := r.clients[clientID]
	invokeCT, err := c.Invoke(op)
	if err != nil {
		return nil, err
	}
	return r.deliver(c, invokeCT)
}

// persistBatch performs the honest host's persistence protocol for one
// batch response: append the delta record to its segment, or store the
// inline blob and drop the segments below it. After a cut it seals and
// stores the checkpoint at once — in the rig every record is durable as
// soon as it is appended.
func (r *rig) persistBatch(batch *BatchResult) error {
	if len(batch.DeltaRecord) > 0 {
		if err := r.storage.Append(SegmentSlot(batch.Seg), batch.DeltaRecord); err != nil {
			return err
		}
		if !batch.Cut || r.noCheckpoints {
			return nil
		}
		blob, err := r.enclave.BackgroundCall(EncodeCheckpointCall(batch.Seg + 1))
		if err != nil {
			return err
		}
		return r.storeBlob(blob)
	}
	return r.storeBlob(batch.StateBlob)
}

// call runs one already-encoded invoke through the enclave and returns
// its result without persisting anything.
func (r *rig) call(invoke []byte) *BatchResult {
	r.t.Helper()
	resp, err := r.enclave.Call(EncodeBatchCall([][]byte{invoke}))
	if err != nil {
		r.t.Fatal(err)
	}
	batch, err := DecodeBatchResult(resp)
	if err != nil {
		r.t.Fatal(err)
	}
	return batch
}

// sealCheckpoint seals the checkpoint that starts segment seg.
func (r *rig) sealCheckpoint(seg uint64) []byte {
	r.t.Helper()
	blob, err := r.enclave.BackgroundCall(EncodeCheckpointCall(seg))
	if err != nil {
		r.t.Fatal(err)
	}
	return blob
}

// chainRecords counts the records recovery folds: those of the segment
// the stored blob names and of every later one holding records.
func (r *rig) chainRecords() int {
	blob, err := r.storage.Load(SlotStateBlob)
	if err != nil {
		r.t.Fatal(err)
	}
	n := 0
	for seg, _ := BlobSegment(blob); r.storage.LogLen(SegmentSlot(seg)) > 0; seg++ {
		n += r.storage.LogLen(SegmentSlot(seg))
	}
	return n
}

// storeBlob stores a state blob and drops the log segments below the one
// it names.
func (r *rig) storeBlob(blob []byte) error {
	if err := r.storage.Store(SlotStateBlob, blob); err != nil {
		return err
	}
	seg, _ := BlobSegment(blob)
	for s := uint64(0); s < seg; s++ {
		if err := r.storage.TruncateLog(SegmentSlot(s)); err != nil {
			return err
		}
	}
	return nil
}

// deliver sends one already-encoded invoke and completes the reply.
func (r *rig) deliver(c *Client, invokeCT []byte) (*Result, error) {
	resp, err := r.enclave.Call(EncodeBatchCall([][]byte{invokeCT}))
	if err != nil {
		return nil, err
	}
	batch, err := DecodeBatchResult(resp)
	if err != nil {
		return nil, err
	}
	if err := r.persistBatch(batch); err != nil {
		return nil, err
	}
	return c.ProcessReply(batch.Replies[0])
}

func (r *rig) mustDo(clientID uint32, op []byte) *Result {
	r.t.Helper()
	res, err := r.do(clientID, op)
	if err != nil {
		r.t.Fatalf("client %d op: %v", clientID, err)
	}
	return res
}

func (r *rig) mustPut(clientID uint32, key, value string) *Result {
	r.t.Helper()
	return r.mustDo(clientID, kvs.Put(key, value))
}

func (r *rig) mustGet(clientID uint32, key string) (kvs.Result, *Result) {
	r.t.Helper()
	res := r.mustDo(clientID, kvs.Get(key))
	kv, err := kvs.DecodeResult(res.Value)
	if err != nil {
		r.t.Fatalf("decode kvs result: %v", err)
	}
	return kv, res
}

// copySealedState plays the honest host's part of a reshard's staging or
// an admin recovery: the sealed state blob and delta log are ordinary
// untrusted files, and the host ships them to the target's storage
// outside the secure channel (a reshard piece carries only kP, the chain
// head and the pending delta).
func copySealedState(t testing.TB, dst, src stablestore.Store) {
	t.Helper()
	blob, err := src.Load(SlotStateBlob)
	if err != nil {
		t.Fatalf("copy state blob: %v", err)
	}
	if err := dst.Store(SlotStateBlob, blob); err != nil {
		t.Fatalf("store state blob: %v", err)
	}
	for seg, _ := BlobSegment(blob); ; seg++ {
		log, err := src.LoadLog(SegmentSlot(seg))
		if err != nil {
			t.Fatalf("copy delta log: %v", err)
		}
		if err := dst.TruncateLog(SegmentSlot(seg)); err != nil {
			t.Fatalf("clear target log: %v", err)
		}
		if len(log) == 0 {
			return
		}
		if err := dst.AppendGroup(SegmentSlot(seg), log); err != nil {
			t.Fatalf("store delta log: %v", err)
		}
	}
}

// reshardOnto moves r's context onto targets, one store each, as the
// host's coordinator does: quote every target over the lead's nonce,
// BEGIN (relaying channel, the admin's, if set), stage the source's chain
// under src0/ in each target's store (stage, if set, stages instead),
// EXPORT, and IMPORT on each target. A migration is one target on
// another platform. A failure before EXPORT aborts, and the origin
// serves on.
func (r *rig) reshardOnto(targets []*tee.Enclave, stores []stablestore.Store, channel []byte, stage func(dst stablestore.Store)) (*ReshardBeginResult, *ReshardExportResult, error) {
	r.t.Helper()
	abort := func(err error) (*ReshardBeginResult, *ReshardExportResult, error) {
		_, _ = r.enclave.Call(EncodeReshardAbortCall())
		return nil, nil, err
	}
	nonce, err := r.enclave.Call(EncodeReshardChallengeCall())
	if err != nil {
		return abort(err)
	}
	quotes := make([][]byte, len(targets))
	for j, target := range targets {
		if quotes[j], err = target.Call(EncodeAttestCall(nonce)); err != nil {
			return abort(err)
		}
	}
	resp, err := r.enclave.Call(EncodeReshardBeginCall(len(targets), quotes, nil, channel))
	if err != nil {
		return abort(err)
	}
	begin, err := DecodeReshardBeginResult(resp)
	if err != nil {
		return abort(err)
	}
	for _, store := range stores {
		staging := stablestore.NewNamespaced(store, "src0")
		if stage != nil {
			stage(staging)
		} else {
			copySealedState(r.t, staging, r.storage)
		}
	}
	if resp, err = r.enclave.Call(EncodeReshardExportCall()); err != nil {
		return abort(err)
	}
	export, err := DecodeReshardExportResult(resp)
	if err != nil {
		return nil, nil, err
	}
	for j, target := range targets {
		if _, err := target.Call(EncodeReshardImportCall(begin.TargetPayloads[j], [][]byte{export.Pieces[j]})); err != nil {
			return begin, export, fmt.Errorf("reshard import %d: %w", j, err)
		}
	}
	return begin, export, nil
}

// adopt walks client c of the single-shard context r moved across the
// boundary, as a client session does: it opens the source's handoff with
// its kC, requires its own V entry to match its context (or, with an op
// pending, to have executed exactly that op, whose result the cached
// reply recovers) and starts a fresh context under target shard j's kC.
func adopt(c *Client, kc aead.Key, export *ReshardExportResult, j int) (*Client, *Result, error) {
	handoff, err := OpenReshardHandoff(kc, export.Handoff)
	if err != nil {
		return nil, nil, err
	}
	entry, ok := handoff.Entry(c.ID())
	if !ok || j >= len(handoff.NewKCs) {
		return nil, nil, fmt.Errorf("handoff has no entry for client %d or no key for shard %d", c.ID(), j)
	}
	var recovered *Result
	st := c.State()
	switch {
	case entry.T == st.TC && entry.H == st.HC:
	case st.Pending != nil && entry.TA == st.TC && entry.HA == st.HC:
		if recovered, err = c.ProcessReply(entry.LastReply); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, fmt.Errorf("%w: handoff context t=%d, client t=%d", ErrViolationDetected, entry.T, st.TC)
	}
	kcNew, err := aead.KeyFromBytes(handoff.NewKCs[j])
	if err != nil {
		return nil, nil, err
	}
	return NewClient(c.ID(), kcNew), recovered, nil
}

// migrate moves r's context onto a fresh enclave of cfg's program on
// platform, over store, and moves its clients; the returned rig drives
// the target.
func (r *rig) migrate(platform *tee.Platform, store *stablestore.RollbackStore, cfg TrustedConfig) (*rig, error) {
	r.t.Helper()
	cfg.Attestation = r.attestation
	target := platform.NewEnclave(NewTrustedFactory(cfg), store)
	if err := target.Start(); err != nil {
		return nil, err
	}
	_, export, err := r.reshardOnto([]*tee.Enclave{target}, []stablestore.Store{store}, nil, nil)
	if err != nil {
		return nil, err
	}
	tr := &rig{t: r.t, platform: platform, attestation: r.attestation, storage: store, enclave: target, clients: map[uint32]*Client{}}
	for id, c := range r.clients {
		if tr.clients[id], _, err = adopt(c, r.admin.CommunicationKey(), export, 0); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

func TestBootstrapAndBasicOperation(t *testing.T) {
	r := newRig(t, []uint32{1, 2})

	status, err := QueryStatus(r.enclave.Call)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Provisioned || status.NumClients != 2 || status.Seq != 0 {
		t.Fatalf("status after bootstrap = %+v", status)
	}

	res := r.mustPut(1, "color", "blue")
	if res.Seq != 1 {
		t.Fatalf("first op seq = %d", res.Seq)
	}
	kv, res := r.mustGet(2, "color")
	if !kv.Found || string(kv.Value) != "blue" {
		t.Fatalf("client 2 read = %+v", kv)
	}
	if res.Seq != 2 {
		t.Fatalf("second op seq = %d", res.Seq)
	}
}

func TestBootstrapRejectsEmptyOrDuplicateGroup(t *testing.T) {
	r := newRig(t, []uint32{1})
	admin2 := NewAdmin(r.attestation, ProgramIdentity("kvs"))
	if err := admin2.Bootstrap(r.enclave.Call, nil); err == nil {
		t.Fatal("Bootstrap accepted empty group")
	}
	// Re-provisioning an already provisioned context must fail.
	if err := admin2.Bootstrap(r.enclave.Call, []uint32{1, 2}); err == nil {
		t.Fatal("second Bootstrap accepted")
	}
}

func TestUnprovisionedRejectsBatches(t *testing.T) {
	platform, _ := tee.NewPlatform("p")
	enclave := platform.NewEnclave(NewTrustedFactory(TrustedConfig{
		ServiceName: "kvs",
		NewService:  kvs.Factory(),
	}), stablestore.NewMemStore())
	if err := enclave.Start(); err != nil {
		t.Fatal(err)
	}
	_, err := enclave.Call(EncodeBatchCall([][]byte{{1, 2, 3}}))
	if !errors.Is(err, ErrNotProvisioned) {
		t.Fatalf("batch before provisioning = %v", err)
	}
}

// Stability: with three clients, an operation becomes majority-stable once
// two clients have acknowledged operations at or beyond it (Sec. 4.5).
func TestStabilityProgression(t *testing.T) {
	r := newRig(t, []uint32{1, 2, 3})

	res1 := r.mustPut(1, "a", "1") // seq 1, acks: nothing yet
	if res1.Stable != 0 {
		t.Fatalf("q after first op = %d, want 0", res1.Stable)
	}
	res2 := r.mustPut(2, "b", "2") // seq 2
	if res2.Stable != 0 {
		t.Fatalf("q after second op = %d, want 0 (no acks yet)", res2.Stable)
	}
	// Client 1 invokes again: its INVOKE acknowledges seq 1. Acks now
	// {1:1, 2:0, 3:0}; 2nd largest = 0.
	res3 := r.mustPut(1, "c", "3") // seq 3
	if res3.Stable != 0 {
		t.Fatalf("q after third op = %d, want 0", res3.Stable)
	}
	// Client 2 invokes again: acknowledges seq 2. Acks {1:1, 2:2, 3:0};
	// 2nd largest = 1 → ops up to seq 1 are majority-stable.
	res4 := r.mustPut(2, "d", "4") // seq 4
	if res4.Stable != 1 {
		t.Fatalf("q after fourth op = %d, want 1", res4.Stable)
	}
	if !r.clients[2].IsStable(1) || r.clients[2].IsStable(2) {
		t.Fatalf("client 2 stability view: ts=%d", r.clients[2].LastStable())
	}
	// A dummy operation (FAUST-style, Sec. 4.5) lets client 3 both learn
	// and advance stability.
	res5 := r.mustDo(3, kvs.Get("a")) // seq 5; acks {1:1,2:2,3:0} → q=1
	if res5.Stable != 1 {
		t.Fatalf("q after fifth op = %d, want 1", res5.Stable)
	}
	res6 := r.mustDo(3, kvs.Get("a")) // acks {1:1,2:2,3:5} → 2nd largest = 2
	if res6.Stable != 2 {
		t.Fatalf("q after sixth op = %d, want 2", res6.Stable)
	}
}

// Recovery: an honest restart resumes from the last sealed state with the
// hash chain intact (Sec. 4.4).
func TestHonestRestartResumesSeamlessly(t *testing.T) {
	r := newRig(t, []uint32{1, 2})
	r.mustPut(1, "k1", "v1")
	r.mustPut(2, "k2", "v2")

	if err := r.enclave.Restart(); err != nil {
		t.Fatalf("Restart: %v", err)
	}

	status, err := QueryStatus(r.enclave.Call)
	if err != nil {
		t.Fatal(err)
	}
	if status.Seq != 2 {
		t.Fatalf("recovered t = %d, want 2", status.Seq)
	}
	// Clients keep working against the recovered context with no
	// re-attestation (trust flows through kC recovery, Sec. 4.4).
	kv, res := r.mustGet(1, "k2")
	if !kv.Found || string(kv.Value) != "v2" {
		t.Fatalf("read after restart = %+v", kv)
	}
	if res.Seq != 3 {
		t.Fatalf("seq after restart = %d, want 3", res.Seq)
	}
}

// The rollback attack of Sec. 2.3: the malicious server restarts T from an
// older sealed state. The next client invocation presents a context ahead
// of the rolled-back V, and T halts.
func TestRollbackAttackDetected(t *testing.T) {
	r := newRig(t, []uint32{1, 2})
	r.mustPut(1, "k", "v1") // state version: after seq 1
	r.mustPut(1, "k", "v2") // after seq 2
	r.mustPut(1, "k", "v3") // after seq 3

	// Attack: serve the state as of seq 1 and restart T. Under delta
	// persistence the per-batch writes are log appends, so the rollback
	// truncates the last two delta records.
	if !r.storage.RollbackLogBy(SlotDeltaLog, 2) {
		t.Fatal("rollback injection failed")
	}
	if err := r.enclave.Restart(); err != nil {
		t.Fatalf("Restart after rollback: %v (a stale-but-authentic state must be accepted at init)", err)
	}
	// T resumed from the stale state: its t is 1.
	status, _ := QueryStatus(r.enclave.Call)
	if status.Seq != 1 {
		t.Fatalf("rolled-back t = %d, want 1", status.Seq)
	}

	// Client 1's next invocation carries (tc=3, hc after seq 3); the
	// enclave's V says client 1's last op was seq 1 → context mismatch →
	// halt.
	_, err := r.do(1, kvs.Get("k"))
	if !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("op after rollback = %v, want enclave halt", err)
	}
	if r.enclave.HaltedErr() == nil {
		t.Fatal("enclave did not record the violation")
	}
}

// A replayed INVOKE (message replay, Sec. 4.2.2) is detected by V.
func TestInvokeReplayDetected(t *testing.T) {
	r := newRig(t, []uint32{1})
	c := r.clients[1]
	invokeCT, err := c.Invoke(kvs.Put("k", "v"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.deliver(c, invokeCT); err != nil {
		t.Fatal(err)
	}
	// The server replays the same INVOKE.
	_, err = r.enclave.Call(EncodeBatchCall([][]byte{invokeCT}))
	if !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("replayed invoke = %v, want enclave halt", err)
	}
}

// A forged or corrupted INVOKE fails authentication and halts T.
func TestForgedInvokeDetected(t *testing.T) {
	r := newRig(t, []uint32{1})
	c := r.clients[1]
	invokeCT, _ := c.Invoke(kvs.Put("k", "v"))
	invokeCT[0] ^= 0xFF
	_, err := r.enclave.Call(EncodeBatchCall([][]byte{invokeCT}))
	if !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("forged invoke = %v, want enclave halt", err)
	}
}

// Retry case A (Sec. 4.6.1): T crashed before processing; the retry is
// processed as a normal operation.
func TestRetryBeforeProcessing(t *testing.T) {
	r := newRig(t, []uint32{1})
	c := r.clients[1]
	if _, err := c.Invoke(kvs.Put("k", "v")); err != nil {
		t.Fatal(err)
	}
	// The INVOKE never reached T; the host crashes and restarts T.
	if err := r.enclave.Restart(); err != nil {
		t.Fatal(err)
	}
	retryCT, err := c.RetryMessage()
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.deliver(c, retryCT)
	if err != nil {
		t.Fatalf("retry: %v", err)
	}
	if res.Seq != 1 {
		t.Fatalf("retry seq = %d, want 1", res.Seq)
	}
}

// Retry case B (Sec. 4.6.1): T processed the operation and stored state,
// but the reply was lost. The retry must return the cached result without
// re-executing.
func TestRetryAfterProcessingReturnsCachedReply(t *testing.T) {
	r := newRig(t, []uint32{1})
	c := r.clients[1]

	// Seed a counter-like value so double execution would be visible.
	res := r.mustPut(1, "k", "v1")
	if res.Seq != 1 {
		t.Fatal("setup failed")
	}

	invokeCT, err := c.Invoke(kvs.Put("k", "v2"))
	if err != nil {
		t.Fatal(err)
	}
	// Deliver to T, persist state, but "lose" the reply.
	resp, err := r.enclave.Call(EncodeBatchCall([][]byte{invokeCT}))
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := DecodeBatchResult(resp)
	if err := r.persistBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Host crashes; T restarts from the stored state.
	if err := r.enclave.Restart(); err != nil {
		t.Fatal(err)
	}
	// Client retries. T's V says client's last op is seq 2 with ack seq 1
	// — the retry context matches the acknowledged entry → cached reply.
	retryCT, err := c.RetryMessage()
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.deliver(c, retryCT)
	if err != nil {
		t.Fatalf("retry after processing: %v", err)
	}
	if res2.Seq != 2 {
		t.Fatalf("retry seq = %d, want 2 (no re-execution)", res2.Seq)
	}
	// The operation executed exactly once: global t is 2.
	status, _ := QueryStatus(r.enclave.Call)
	if status.Seq != 2 {
		t.Fatalf("t = %d after retry, want 2", status.Seq)
	}
	// And the client can continue normally.
	kv, _ := r.mustGet(1, "k")
	if string(kv.Value) != "v2" {
		t.Fatalf("value = %q", kv.Value)
	}
}

// A non-retry duplicate with a stale context must NOT get the cached
// reply: only marked retries take the recovery path.
func TestStaleContextWithoutRetryMarkerHalts(t *testing.T) {
	r := newRig(t, []uint32{1})
	c := r.clients[1]
	first, _ := c.Invoke(kvs.Put("k", "v1"))
	if _, err := r.deliver(c, first); err != nil {
		t.Fatal(err)
	}
	// Replay the first invoke (same stale context, no retry marker).
	_, err := r.enclave.Call(EncodeBatchCall([][]byte{first}))
	if !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("stale non-retry = %v, want halt", err)
	}
}

// The forking attack of Sec. 2.3: the server runs two instances of T from
// the same sealed state and partitions the clients. Each partition works
// in isolation; stability stalls for forked clients, and any client that
// crosses partitions is detected immediately.
func TestForkingAttackDetectedOnJoin(t *testing.T) {
	r := newRig(t, []uint32{1, 2})
	r.mustPut(1, "k", "v0")
	r.mustPut(2, "k", "v0b")

	// Fork: a second enclave instance initialized from the same storage.
	factory := NewTrustedFactory(TrustedConfig{
		ServiceName: "kvs",
		NewService:  kvs.Factory(),
		Attestation: r.attestation,
	})
	fork := r.platform.NewEnclave(factory, r.storage)
	if err := fork.Start(); err != nil {
		t.Fatal(err)
	}

	// Client 1 talks to the original, client 2 to the fork. Both succeed:
	// the fork is undetectable while partitions stay separate.
	c1, c2 := r.clients[1], r.clients[2]
	inv1, _ := c1.Invoke(kvs.Put("k", "from-c1"))
	if _, err := r.deliver(c1, inv1); err != nil {
		t.Fatalf("partition 1: %v", err)
	}
	inv2, _ := c2.Invoke(kvs.Put("k", "from-c2"))
	resp, err := fork.Call(EncodeBatchCall([][]byte{inv2}))
	if err != nil {
		t.Fatalf("partition 2: %v", err)
	}
	batch, _ := DecodeBatchResult(resp)
	res2, err := c2.ProcessReply(batch.Replies[0])
	if err != nil {
		t.Fatalf("partition 2 reply: %v", err)
	}
	// Both forks assigned seq 3 — diverging histories.
	if res2.Seq != 3 {
		t.Fatalf("fork seq = %d, want 3", res2.Seq)
	}

	// Join: client 2's next op goes to the original instance. Its context
	// (tc=3, hc from the fork) conflicts with the original's V → halt.
	inv2b, _ := c2.Invoke(kvs.Get("k"))
	_, err = r.enclave.Call(EncodeBatchCall([][]byte{inv2b}))
	if !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("join after fork = %v, want enclave halt", err)
	}
}

// Under a fork, operations of partitioned clients cease to become stable
// (Sec. 4.5): the fork serving client 1 never sees client 2's
// acknowledgements.
func TestForkStallsStability(t *testing.T) {
	r := newRig(t, []uint32{1, 2})
	// Honest phase: both clients work, stability advances.
	r.mustPut(1, "a", "1")        // seq 1
	r.mustPut(2, "b", "2")        // seq 2
	res := r.mustPut(1, "c", "3") // seq 3, acks {1:1,2:0}... q = min = 0
	_ = res
	res = r.mustPut(2, "d", "4") // acks {1:1,2:2} → q=1
	if res.Stable != 1 {
		t.Fatalf("honest q = %d, want 1", res.Stable)
	}

	// Fork: client 1 is isolated on the original instance; client 2
	// stops talking to it. Client 1 keeps invoking.
	last := uint64(0)
	for i := 0; i < 5; i++ {
		res := r.mustPut(1, "x", fmt.Sprintf("v%d", i))
		last = res.Stable
	}
	// Stability for client 1 can advance at most to its partner's last
	// acknowledged op before the fork (seq 2) and then stalls forever.
	if last > 2 {
		t.Fatalf("q advanced to %d during fork; majority requires the missing client", last)
	}
}

// kvsConfig is the kvs program the rigs run.
func kvsConfig() TrustedConfig {
	return TrustedConfig{ServiceName: "kvs", NewService: kvs.Factory()}
}

// Migration (Sec. 4.6.2) is a reshard onto another platform: the state
// moves, each client's context is pinned in the origin's handoff, the
// origin refuses further work, and the target restarts from its own
// storage.
func TestMigrationPreservesSessionsAndState(t *testing.T) {
	r := newRig(t, []uint32{1, 2})
	r.mustPut(1, "k", "v1")
	r.mustPut(2, "k", "v2")
	origin := r.clients[1]

	target, err := tee.NewPlatform("plat-2")
	if err != nil {
		t.Fatal(err)
	}
	r.attestation.Register(target)
	tr, err := r.migrate(target, stablestore.NewRollbackStore(stablestore.NewMemStore()), kvsConfig())
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}

	// The origin refuses batches now.
	inv, _ := origin.Invoke(kvs.Get("k"))
	if _, err := r.enclave.Call(EncodeBatchCall([][]byte{inv})); !errors.Is(err, ErrReshardedAway) {
		t.Fatalf("origin after migration = %v, want ErrReshardedAway", err)
	}

	// Each client checked its own V entry in the handoff (adopt) and runs
	// a fresh context under the target's kC, over the migrated state.
	kv, res := tr.mustGet(1, "k")
	if res.Seq != 1 || !kv.Found || string(kv.Value) != "v2" {
		t.Fatalf("migrated state read = %+v at seq %d", kv, res.Seq)
	}
	tr.mustPut(2, "k", "v3")

	// The target persisted under its own sealing key: it can restart.
	if err := tr.enclave.Restart(); err != nil {
		t.Fatal(err)
	}
	status, err := QueryStatus(tr.enclave.Call)
	if err != nil || status.Seq != 2 || status.Gen != 1 {
		t.Fatalf("target status after restart = %+v, %v", status, err)
	}
	if kv, _ := tr.mustGet(1, "k"); string(kv.Value) != "v3" {
		t.Fatalf("value after the target's restart = %q", kv.Value)
	}
}

// A migration releases the generation's keys only to an attested genuine
// target: a quote from an unregistered platform fails BEGIN, and the
// origin serves on.
func TestMigrationRejectsRoguePlatform(t *testing.T) {
	r := newRig(t, []uint32{1})
	rogue, _ := tee.NewPlatform("rogue") // never registered
	cfg := kvsConfig()
	cfg.Attestation = r.attestation
	rogueEnclave := rogue.NewEnclave(NewTrustedFactory(cfg), stablestore.NewMemStore())
	if err := rogueEnclave.Start(); err != nil {
		t.Fatal(err)
	}
	_, _, err := r.reshardOnto([]*tee.Enclave{rogueEnclave}, []stablestore.Store{stablestore.NewMemStore()}, nil, nil)
	if !errors.Is(err, ErrReshardAttestation) {
		t.Fatalf("migration to an unregistered platform = %v, want ErrReshardAttestation", err)
	}
	// The origin must still be serving (no state was released).
	if _, err := r.do(1, kvs.Put("k", "v")); err != nil {
		t.Fatalf("origin after failed migration: %v", err)
	}
}

// With shared storage, an enclave on a different platform finds a key
// blob it cannot unseal and awaits provisioning instead of halting
// (Sec. 4.6.2); a migration's import then provisions it.
func TestMigrationInitOnForeignPlatformAwaitsImport(t *testing.T) {
	r := newRig(t, []uint32{1})
	r.mustPut(1, "k", "v")

	target, _ := tee.NewPlatform("plat-2")
	r.attestation.Register(target)
	cfg := kvsConfig()
	cfg.Attestation = r.attestation
	// Shared storage: the target sees the origin's sealed blobs.
	targetEnclave := target.NewEnclave(NewTrustedFactory(cfg), r.storage)
	if err := targetEnclave.Start(); err != nil {
		t.Fatalf("target start on shared storage: %v", err)
	}
	status, err := QueryStatus(targetEnclave.Call)
	if err != nil {
		t.Fatal(err)
	}
	if status.Provisioned {
		t.Fatal("target claims provisioned without kP")
	}
	if _, _, err := r.reshardOnto([]*tee.Enclave{targetEnclave}, []stablestore.Store{r.storage}, nil, nil); err != nil {
		t.Fatalf("migration over shared storage: %v", err)
	}
	status, _ = QueryStatus(targetEnclave.Call)
	if !status.Provisioned || status.Gen != 1 || status.Seq != 0 {
		t.Fatalf("target status after import = %+v", status)
	}
}

// sealEpoch seals a membership epoch and persists its result like the
// honest host, then has the admin adopt the group view (and any kC the
// seal rotated).
func (r *rig) sealEpoch() *GroupInfo {
	r.t.Helper()
	resp, err := r.enclave.Call(EncodeEpochSealCall())
	if err != nil {
		r.t.Fatalf("epoch seal: %v", err)
	}
	batch, err := DecodeBatchResult(resp)
	if err != nil {
		r.t.Fatal(err)
	}
	if err := r.persistBatch(batch); err != nil {
		r.t.Fatal(err)
	}
	info, err := r.admin.Members(r.enclave.Call)
	if err != nil {
		r.t.Fatalf("Members: %v", err)
	}
	return info
}

// Group membership (Sec. 4.6.3): a join extends V and the stability
// quorum; an eviction takes effect at the epoch seal, which rotates kC so
// the evictee is cut off.
func TestMembershipAddAndRemove(t *testing.T) {
	r := newRig(t, []uint32{1, 2})
	r.mustPut(1, "k", "v")

	if err := r.admin.Join(r.enclave.Call, 3); err != nil {
		t.Fatalf("Join: %v", err)
	}
	status, _ := QueryStatus(r.enclave.Call)
	if status.NumClients != 3 {
		t.Fatalf("NumClients = %d after join", status.NumClients)
	}
	c3 := NewClient(3, r.admin.CommunicationKey())
	r.clients[3] = c3
	if _, err := r.do(3, kvs.Get("k")); err != nil {
		t.Fatalf("new client op: %v", err)
	}

	// A repeated join is a no-op.
	if err := r.admin.Join(r.enclave.Call, 3); err != nil {
		t.Fatalf("repeated Join: %v", err)
	}
	if status, _ = QueryStatus(r.enclave.Call); status.NumClients != 3 {
		t.Fatalf("NumClients = %d after a repeated join", status.NumClients)
	}

	// Evict client 2: staged until the seal, which rotates kC.
	oldKC := r.admin.CommunicationKey()
	if err := r.admin.Evict(r.enclave.Call, 2); err != nil {
		t.Fatalf("Evict: %v", err)
	}
	if status, _ = QueryStatus(r.enclave.Call); status.NumClients != 3 {
		t.Fatalf("NumClients = %d before the seal", status.NumClients)
	}
	info := r.sealEpoch()
	if len(info.Members) != 2 || info.Evictions != 1 {
		t.Fatalf("after the seal: members %v, evictions %d", info.Members, info.Evictions)
	}
	if r.admin.CommunicationKey() == oldKC {
		t.Fatal("the eviction seal did not rotate kC")
	}

	// The evicted client's messages no longer authenticate: T halts on
	// them (they are indistinguishable from forgeries), which is the
	// correct fail-stop reaction.
	evicted := r.clients[2]
	inv, _ := evicted.Invoke(kvs.Get("k"))
	if _, err := r.enclave.Call(EncodeBatchCall([][]byte{inv})); !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("evicted client op = %v, want halt", err)
	}
}

// Remaining clients continue across a key rotation by resuming their
// protocol state under the new key.
func TestMembershipKeyRotationContinuity(t *testing.T) {
	r := newRig(t, []uint32{1, 2, 3})
	r.mustPut(1, "k", "v1")

	if err := r.admin.Evict(r.enclave.Call, 3); err != nil {
		t.Fatal(err)
	}
	r.sealEpoch()
	// Client 1 adopts k'C (distributed by the admin out of band) while
	// keeping its tc/hc — the protocol context survives rotation.
	c1 := r.clients[1]
	c1rot := ResumeClient(c1.State(), r.admin.CommunicationKey())
	r.clients[1] = c1rot
	inv, err := c1rot.Invoke(kvs.Get("k"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.deliver(c1rot, inv)
	if err != nil {
		t.Fatalf("op after rotation: %v", err)
	}
	kv, _ := kvs.DecodeResult(res.Value)
	if !kv.Found || string(kv.Value) != "v1" {
		t.Fatalf("read after rotation = %+v", kv)
	}
}

func TestAdminOpReplayRejected(t *testing.T) {
	r := newRig(t, []uint32{1})
	// Capture an admin op by wrapping the call func.
	var captured []byte
	call := func(payload []byte) ([]byte, error) {
		captured = append([]byte(nil), payload...)
		return r.enclave.Call(payload)
	}
	if err := r.admin.Join(call, 2); err != nil {
		t.Fatal(err)
	}
	// The malicious server replays the captured admin message.
	if _, err := r.enclave.Call(captured); !errors.Is(err, ErrAdminReplay) {
		t.Fatalf("replayed admin op = %v, want ErrAdminReplay", err)
	}
}

// Admin.Join admits an absent client through one sealed admin op and
// accepts a member as a no-op change; Admin.Leave tombstones a member without
// rotating kC, after which the leaver's operations are refused without a
// halt, and refuses a non-member.
func TestAdminJoinLeave(t *testing.T) {
	r := newRig(t, []uint32{1, 2})
	kc := r.admin.CommunicationKey()
	if err := r.admin.Join(r.enclave.Call, 3); err != nil {
		t.Fatalf("Join: %v", err)
	}
	status, _ := QueryStatus(r.enclave.Call)
	info, err := r.admin.Members(r.enclave.Call)
	if err != nil {
		t.Fatal(err)
	}
	if status.NumClients != 3 || status.AdminSeq != 1 || len(info.Members) != 3 {
		t.Fatalf("after Join: %d clients, admin seq %d, members %v", status.NumClients, status.AdminSeq, info.Members)
	}
	if err := r.admin.Join(r.enclave.Call, 3); err != nil {
		t.Fatalf("Join of a member: %v", err)
	}
	if status, _ = QueryStatus(r.enclave.Call); status.NumClients != 3 || status.AdminSeq != 2 {
		t.Fatalf("after a second Join: %d clients, admin seq %d", status.NumClients, status.AdminSeq)
	}

	r.clients[3] = NewClient(3, kc)
	r.mustPut(3, "k", "v")
	if err := r.admin.Leave(r.enclave.Call, 3); err != nil {
		t.Fatalf("Leave: %v", err)
	}
	status, _ = QueryStatus(r.enclave.Call)
	if info, err = r.admin.Members(r.enclave.Call); err != nil {
		t.Fatal(err)
	}
	if status.NumClients != 2 || status.AdminSeq != 3 || len(info.Members) != 2 {
		t.Fatalf("after Leave: %d clients, admin seq %d, members %v", status.NumClients, status.AdminSeq, info.Members)
	}
	if r.admin.CommunicationKey() != kc {
		t.Fatal("a leave rotated kC")
	}
	inv, err := r.clients[3].Invoke(kvs.Get("k"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.enclave.Call(EncodeBatchCall([][]byte{inv})); !errors.Is(err, ErrClientEvicted) {
		t.Fatalf("op by the leaver = %v, want ErrClientEvicted", err)
	}
	if err := r.enclave.HaltedErr(); err != nil {
		t.Fatalf("the leaver's op halted the enclave: %v", err)
	}
	if err := r.admin.Leave(r.enclave.Call, 9); !errors.Is(err, ErrUnknownClient) {
		t.Fatalf("Leave of a non-member = %v, want ErrUnknownClient", err)
	}
	r.mustPut(1, "k", "after")
}

// A client that left through churn is re-admitted by Admin.Join: the
// admin has no view of client-originated leaves, so Join always reaches
// the enclave, and the enclave's add accepts a member as churn does.
func TestAdminJoinAfterChurnLeave(t *testing.T) {
	r := newRig(t, []uint32{1, 2, 3})
	r.mustPut(3, "k", "v")
	msg, err := SealChurnMsg(r.admin.CommunicationKey(), ChurnLeave, 3)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := r.enclave.Call(EncodeChurnCall([][]byte{msg}))
	if err != nil {
		t.Fatalf("churn leave: %v", err)
	}
	batch, err := DecodeBatchResult(resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.persistBatch(batch); err != nil {
		t.Fatal(err)
	}
	if status, _ := QueryStatus(r.enclave.Call); status.NumClients != 2 {
		t.Fatalf("after the churn leave: %d clients, want 2", status.NumClients)
	}
	if err := r.admin.Join(r.enclave.Call, 3); err != nil {
		t.Fatalf("Join after a churn leave: %v", err)
	}
	if status, _ := QueryStatus(r.enclave.Call); status.NumClients != 3 || status.AdminSeq != 1 {
		t.Fatalf("after Join: %d clients, admin seq %d; want 3 clients, admin seq 1", status.NumClients, status.AdminSeq)
	}
	r.clients[3] = NewClient(3, r.admin.CommunicationKey())
	r.mustPut(3, "k", "again")
}

// The last client can neither leave nor be evicted.
func TestRemoveLastClientRejected(t *testing.T) {
	r := newRig(t, []uint32{1})
	if err := r.admin.Leave(r.enclave.Call, 1); err == nil {
		t.Fatal("the last client left")
	}
	if err := r.admin.Evict(r.enclave.Call, 1); err != nil {
		t.Fatal(err)
	}
	if info := r.sealEpoch(); len(info.Members) != 1 || info.Evictions != 0 {
		t.Fatalf("after evicting the last client: members %v, evictions %d", info.Members, info.Evictions)
	}
}

// A state blob that vanishes while the key blob remains is a violation:
// the host withheld state it must have.
func TestMissingStateBlobHalts(t *testing.T) {
	r := newRig(t, []uint32{1})
	r.mustPut(1, "k", "v")
	// Simulate the host deleting just the state blob.
	inner := stablestore.NewMemStore()
	keyBlob, err := r.storage.Load(SlotKeyBlob)
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.Store(SlotKeyBlob, keyBlob); err != nil {
		t.Fatal(err)
	}
	factory := NewTrustedFactory(TrustedConfig{
		ServiceName: "kvs",
		NewService:  kvs.Factory(),
		Attestation: r.attestation,
	})
	e2 := r.platform.NewEnclave(factory, inner)
	if err := e2.Start(); !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("start with withheld state = %v, want halt", err)
	}
}

// A tampered state blob fails authentication at init and halts.
func TestTamperedStateBlobHalts(t *testing.T) {
	r := newRig(t, []uint32{1})
	r.mustPut(1, "k", "v")
	blob, err := r.storage.Load(SlotStateBlob)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 1
	if err := r.storage.Store(SlotStateBlob, blob); err != nil {
		t.Fatal(err)
	}
	r.enclave.Stop()
	if err := r.enclave.Start(); !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("start with tampered state = %v, want halt", err)
	}
}

// Batch processing: several clients' invokes in one ecall, replies in
// order, one sealed state per batch (Sec. 5.2).
func TestBatchProcessing(t *testing.T) {
	r := newRig(t, []uint32{1, 2, 3})
	var invokes [][]byte
	for id := uint32(1); id <= 3; id++ {
		inv, err := r.clients[id].Invoke(kvs.Put(fmt.Sprintf("k%d", id), "v"))
		if err != nil {
			t.Fatal(err)
		}
		invokes = append(invokes, inv)
	}
	resp, err := r.enclave.Call(EncodeBatchCall(invokes))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := DecodeBatchResult(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Replies) != 3 {
		t.Fatalf("replies = %d, want 3", len(batch.Replies))
	}
	if err := r.storage.Store(SlotStateBlob, batch.StateBlob); err != nil {
		t.Fatal(err)
	}
	for i, id := range []uint32{1, 2, 3} {
		res, err := r.clients[id].ProcessReply(batch.Replies[i])
		if err != nil {
			t.Fatalf("client %d reply: %v", id, err)
		}
		if res.Seq != uint64(i+1) {
			t.Fatalf("client %d seq = %d, want %d", id, res.Seq, i+1)
		}
	}
}

func TestStatusCall(t *testing.T) {
	r := newRig(t, []uint32{1, 2})
	r.mustPut(1, "k", "v")
	r.mustPut(2, "k", "v")
	r.mustPut(1, "k", "v")
	status, err := QueryStatus(r.enclave.Call)
	if err != nil {
		t.Fatal(err)
	}
	if status.Seq != 3 || !status.Provisioned || status.Retired {
		t.Fatalf("status = %+v", status)
	}
}
