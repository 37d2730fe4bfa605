package core

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"

	"lcm/internal/aead"
	"lcm/internal/hashchain"
	"lcm/internal/tee"
	"lcm/internal/wire"
)

// Snapshot-isolated concurrent reads.
//
// The trusted context of Alg. 2 serializes every operation: the sequence
// number, the hash chain and the V map all assume a single stream. Reads,
// however, neither advance the chain nor change V — so they can run
// concurrently against an immutable view, as long as two things still
// hold:
//
//  1. Full verification. A read carries the client's context (tc, hc)
//     and is checked against V exactly like a write; a rolled-back or
//     forked enclave therefore fails reads just as it fails writes, and
//     the enclave halts. Read requests and replies are sealed under kC
//     with their own associated-data labels, so they can never be
//     confused with state-changing INVOKE/REPLY messages.
//
//  2. Snapshot stability. Reads execute against the DURABLE prefix of
//     the history — the last batch whose persistence record the host has
//     confirmed on stable storage — through the service's undo overlay
//     (service.SnapshotReader). The host confirms durability with an
//     advance ecall after the storage write completes and BEFORE it
//     releases the covered write replies. A client that has processed
//     the reply for its write at sequence t therefore always reads a
//     snapshot with sequence ≥ t: read-your-writes. The host can lie
//     about durability, but a host that lies and then rolls back is
//     exactly the rollback attacker, and the context check detects it.
//
// readState is the reader-visible projection of the trusted context:
// the communication key, each client's last (t, h) context, and the
// durable snapshot's sequence and majority-stable numbers. The stable
// number is the q floor sealed with the durable prefix, never one
// computed from V: V already holds the acknowledgements of batches that
// are not yet durable, and a restart that loses them would publish a
// lower q to the next write than the read did. The writer
// republishes it (a fresh map, never mutated in place) on every advance
// and on every serialized state transition. mu also covers the service's
// durable view: the writer moves the view and republishes seq in one
// write-locked section (publishDurable), and a reader holds the read lock
// from copying seq until its SnapshotRead returns, so the Seq a read
// reply seals is exactly the snapshot its value came from.
type readState struct {
	mu     sync.RWMutex
	ready  bool
	reason error // why reads are refused when !ready
	kc     aead.Key
	v      map[uint32]readCtx
	seq    uint64 // durable snapshot sequence number
	q      uint64 // majority-stable number at (or before) seq
}

// readCtx is one client's verification context as published to readers.
type readCtx struct {
	T uint64
	H hashchain.Value
}

// Associated-data labels for the read path; distinct from adInvoke and
// adReply so neither direction can be transplanted across paths.
const (
	adReadInvoke = "lcm/msg/readinv/v1"
	adReadReply  = "lcm/msg/readrep/v1"
)

// syncReadState republishes the reader-visible projection from the
// serialized state. Callers run on the serialized ecall path.
func (p *Trusted) syncReadState() {
	p.rs.mu.Lock()
	defer p.rs.mu.Unlock()
	p.syncReadStateLocked()
}

// seqQ is the q floor a batch's record sealed, under the batch's final
// sequence number.
type seqQ struct{ t, q uint64 }

// allDurable records that everything executed is on stable storage, with
// the q floor sealed last.
func (p *Trusted) allDurable() {
	p.durableT, p.durableQ, p.batchQ = p.t, p.g.qFloor, p.batchQ[:0]
}

// publishDurable moves the service's durable view to seq and republishes
// the projection before any reader can run against the moved view.
func (p *Trusted) publishDurable(seq uint64) {
	p.durableT = seq
	for len(p.batchQ) > 0 && p.batchQ[0].t <= seq {
		p.durableQ, p.batchQ = p.batchQ[0].q, p.batchQ[1:]
	}
	p.rs.mu.Lock()
	defer p.rs.mu.Unlock()
	p.snapReader.AdvanceDurable(seq)
	p.syncReadStateLocked()
}

func (p *Trusted) syncReadStateLocked() {
	if p.snapReader == nil || !p.readsArmed {
		return
	}
	rs := &p.rs
	switch {
	case !p.provisioned():
		rs.ready, rs.reason = false, ErrNotProvisioned
	case p.resharded:
		rs.ready, rs.reason = false, ErrReshardedAway
	case p.resh != nil:
		rs.ready, rs.reason = false, ErrResharding
	default:
		rs.ready, rs.reason = true, nil
		rs.kc = p.kc
		v := make(map[uint32]readCtx, len(p.g.v))
		for id, e := range p.g.v {
			v[id] = readCtx{T: e.T, H: e.H}
		}
		rs.v = v
		if p.durableT > rs.seq {
			rs.seq = p.durableT
		}
		// Acks arrive with later batches, so the durable floor may run
		// ahead of the durable snapshot; cap it so replies never claim
		// stability beyond the snapshot they describe.
		rs.q = max(rs.q, min(p.durableQ, rs.seq))
	}
}

// handleEnableReads arms the snapshot-read path for this instance. Until
// the host sends it, reads are refused and the service records no
// pre-image: its overlay arms at this call's EndBatch, so a deployment
// that never reads pays nothing. The host arms through the persistence
// barrier, so the current state is durable and becomes the first
// snapshot, and the generation closed here is empty.
func (p *Trusted) handleEnableReads() ([]byte, error) {
	if p.snapReader == nil {
		return nil, ErrReadsUnsupported
	}
	p.readsArmed = true
	p.snapReader.EndBatch(p.t)
	p.allDurable()
	p.publishDurable(p.t)
	return []byte("ok"), nil
}

// handleAdvanceDurable publishes the durable prefix ≤ seq to readers: the
// service discards the undo generations it no longer needs, and the
// reader-visible contexts catch up to the covered batches.
func (p *Trusted) handleAdvanceDurable(seq uint64) ([]byte, error) {
	if p.snapReader == nil || !p.readsArmed {
		return []byte("ok"), nil
	}
	if seq > p.t {
		return nil, fmt.Errorf("lcm: advance to %d beyond executed sequence %d", seq, p.t)
	}
	if seq > p.durableT {
		p.publishDurable(seq)
	}
	return []byte("ok"), nil
}

// HandleRead implements tee.ReadProgram: one snapshot read, runnable
// concurrently with the serialized call stream and with other reads. The
// verification mirrors handleInvoke — authentication failure or a context
// mismatch is a protocol violation and halts the enclave.
func (p *Trusted) HandleRead(ciphertext []byte) ([]byte, error) {
	rs := &p.rs
	rs.mu.RLock()
	defer rs.mu.RUnlock() // held across SnapshotRead: see readState
	kc, vref, seq, q := rs.kc, rs.v, rs.seq, rs.q
	if !rs.ready {
		if rs.reason == nil {
			return nil, ErrReadsNotEnabled
		}
		return nil, rs.reason
	}

	plain, err := aead.Open(kc, ciphertext, []byte(adReadInvoke))
	if err != nil {
		return nil, tee.Halt("read invoke failed authentication", err)
	}
	inv, err := wire.DecodeReadInvoke(plain)
	if err != nil {
		return nil, tee.Halt("read invoke malformed", err)
	}
	ctx, ok := vref[inv.ClientID]
	if !ok {
		return nil, tee.Halt("read from unknown client", ErrUnknownClient)
	}
	// assert V[i] = (∗, tc, hc), exactly as for a write. Clients invoke
	// sequentially, so when a client issues a read its last write is
	// fully acknowledged and its published context matches — unless the
	// enclave was rolled back or forked.
	if ctx.T != inv.TC || ctx.H != inv.HC {
		return nil, tee.Halt("client context mismatch on read: rollback or forking attack", nil)
	}
	if !p.snapReader.IsReadOnly(inv.Op) {
		return nil, tee.Halt("state-changing operation on the read path", nil)
	}
	result, err := p.snapReader.SnapshotRead(inv.Op)
	if err != nil {
		return nil, tee.Halt("read rejected by service", err)
	}
	rep := wire.ReadReply{Seq: seq, Q: q, HCEcho: inv.HC, Nonce: inv.Nonce, Result: result}
	replyCT, err := aead.Seal(kc, rep.Encode(), []byte(adReadReply))
	if err != nil {
		return nil, fmt.Errorf("lcm: seal read reply: %w", err)
	}
	return replyCT, nil
}

// ---- Client side ----

// nextReadNonce returns a fresh request nonce. The counter starts at a
// random offset so nonces stay unique across client restarts (read state
// is not persisted; a replayed pre-crash reply must not match).
func (c *Client) nextReadNonce() uint64 {
	for c.readNonce == 0 {
		var b [8]byte
		if _, err := rand.Read(b[:]); err != nil {
			c.readNonce = 1
			break
		}
		c.readNonce = binary.BigEndian.Uint64(b[:])
	}
	c.readNonce++
	return c.readNonce
}

// ReadInvoke builds the encrypted read request for a read-only operation.
// It requires no write to be pending (the protocol client is sequential);
// a previously unanswered read is simply abandoned — reads have no side
// effects, so re-issuing is always safe. Read state is session-only and
// deliberately absent from ClientState: after a crash the monotonic-reads
// floor restarts, but read-your-writes still holds because tc persists.
func (c *Client) ReadInvoke(op []byte) ([]byte, error) {
	if c.poisoned != nil {
		return nil, c.poisoned
	}
	if c.pending != nil {
		return nil, ErrPendingOperation
	}
	nonce := c.nextReadNonce()
	msg := wire.ReadInvoke{ClientID: c.id, TC: c.tc, HC: c.hc, Nonce: nonce, Op: op}
	ct, err := aead.Seal(c.kc, msg.Encode(), []byte(adReadInvoke))
	if err != nil {
		return nil, fmt.Errorf("lcm: seal read invoke: %w", err)
	}
	c.readPending, c.readPendingNonce = true, nonce
	return ct, nil
}

// HasPendingRead reports whether a read awaits its reply.
func (c *Client) HasPendingRead() bool { return c.readPending }

// ProcessReadReply verifies and consumes the reply to the outstanding
// read. The reply must echo the request nonce and the client's current
// hash-chain value, and must describe a snapshot no older than the
// client's last write (read-your-writes) or its previous read (monotonic
// reads). Authentication, echo and staleness failures are server
// misbehaviour and poison the client; a nonce mismatch alone is the
// delayed reply to an abandoned read and returns the non-poisoning
// ErrStaleReadReply (the read stays pending).
func (c *Client) ProcessReadReply(ciphertext []byte) (*Result, error) {
	if c.poisoned != nil {
		return nil, c.poisoned
	}
	if !c.readPending {
		return nil, ErrNoPendingRead
	}
	plain, err := aead.Open(c.kc, ciphertext, []byte(adReadReply))
	if err != nil {
		return nil, c.poison(ErrReplyAuth)
	}
	rep, err := wire.DecodeReadReply(plain)
	if err != nil {
		return nil, c.poison(fmt.Errorf("%w: %w", ErrReplyAuth, err))
	}
	if rep.Nonce != c.readPendingNonce {
		// An authentic reply for a different nonce is the delayed answer
		// to an abandoned earlier read (timeouts re-issue reads under a
		// fresh nonce over the same link). Discard it and keep waiting —
		// poisoning here would permanently kill the client on a benign
		// timeout. A replayed or withheld frame can never be accepted
		// this way: only the reply echoing the outstanding nonce ever
		// completes the read.
		return nil, ErrStaleReadReply
	}
	if rep.HCEcho != c.hc {
		return nil, c.poison(ErrReplyMismatch)
	}
	if rep.Seq < c.tc || rep.Seq < c.readSeq {
		return nil, c.poison(ErrStaleReadSnapshot)
	}
	if rep.Q > rep.Seq {
		return nil, c.poison(ErrNonMonotonicStable)
	}
	c.readSeq = rep.Seq
	if rep.Q > c.ts {
		c.ts = rep.Q
	}
	c.readPending = false
	return &Result{Value: rep.Result, Seq: rep.Seq, Stable: rep.Q}, nil
}
