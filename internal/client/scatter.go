// Scatter-gather operations over a sharded deployment: prefix scans
// fanned out to every shard, and cross-shard transfers driven through the
// bank's two-phase escrow. Both are client-side constructions — the host
// only ever sees ordinary sealed INVOKEs (bundled into one frame for the
// scan), so the per-shard LCM chains keep protecting every phase.
//
// # Consistency contract (see also docs/ARCHITECTURE.md)
//
// A scan is NOT a consistent global snapshot: each shard executes its
// part at its own point in its own linearization. What a successful scan
// does guarantee is that every per-shard part is a verified LCM reply on
// that shard's chain — a forked or rolled-back shard fails verification
// and poisons the whole scan, while the untouched shards keep serving.
//
// A transfer commits when its CREDIT phase completes; PREPARE merely
// moves the amount into escrow on the source shard, from where it is
// either settled (burned, after the credit) or aborted (refunded). A
// coordinator crash between phases leaves the transfer resumable: re-run
// RunTransfer from the journaled phase and every already-executed phase
// answers idempotently. Money is never minted (duplicate credits are
// rejected by transfer id) and never lost (unsettled escrow is always
// either refundable or already matched by a credit).
package client

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"

	"lcm/internal/core"
	"lcm/internal/counter"
	"lcm/internal/service"
	"lcm/internal/wire"
)

// ShardError reports which shard of a scatter-gather operation failed.
type ShardError struct {
	Shard int
	Err   error
}

// Error implements error.
func (e *ShardError) Error() string {
	return fmt.Sprintf("client: shard %d: %v", e.Shard, e.Err)
}

// Unwrap returns the underlying per-shard error.
func (e *ShardError) Unwrap() error { return e.Err }

// ScanResult is the outcome of a scatter-gather scan.
type ScanResult struct {
	// Merged is the service-level result of the whole scan, produced by
	// the service's Scanner merge from the per-shard results.
	Merged []byte
	// Results holds every shard's verified protocol result, indexed by
	// shard — sequence numbers, stability and values as returned by each
	// shard's LCM context. Test harnesses stamp these into the
	// consistency checker.
	Results []*core.Result
}

// Scan executes one scatter-gatherable operation (service.Scanner) on
// every shard and merges the results. All per-shard INVOKEs travel in a
// single multi-shard frame and the per-shard replies come back in a
// single response, each verified against its own shard's protocol
// context before the merge.
//
// Failure semantics: if any shard fails — a halted enclave, a reply that
// fails verification (fork/rollback detection), a decode error — the
// scan as a whole fails with a ShardError identifying the first failed
// shard. Shards that answered correctly have still advanced their
// contexts and keep serving; shards whose replies never arrived keep the
// operation pending, to be completed with Recover (Sec. 4.6.1). A scan
// therefore never trades consistency for availability: one poisoned
// shard poisons the scan, nothing else.
func (s *ShardedSession) Scan(op []byte) (*ScanResult, error) {
	scanner, ok := s.sharder.(service.Scanner)
	if !ok {
		return nil, errors.New("client: service does not support scatter-gather scans")
	}
	if !scanner.IsScan(op) {
		return nil, errors.New("client: operation is not a scan")
	}
	// Pre-flight every context before buffering anything, so a fan-out
	// never half-starts: Invoke buffers the operation as pending, and a
	// pending op on shard k with no op sent would later be retried into
	// an execution nobody asked for.
	for shard, p := range s.protos {
		if err := p.Err(); err != nil {
			return nil, &ShardError{Shard: shard, Err: err}
		}
		if p.HasPending() {
			return nil, &ShardError{Shard: shard, Err: core.ErrPendingOperation}
		}
	}
	invokes := make([][]byte, len(s.protos))
	for shard := range s.protos {
		inv, err := s.invokeOn(shard, op)
		if err != nil {
			return nil, &ShardError{Shard: shard, Err: err}
		}
		invokes[shard] = inv
	}

	frames, err := s.multiRoundTrip(invokes)
	if err != nil {
		return nil, err
	}

	res := &ScanResult{Results: make([]*core.Result, len(s.protos))}
	values := make([][]byte, len(s.protos))
	var firstErr error
	for shard, frame := range frames {
		payload, err := wire.DecodeResponse(frame)
		if err == nil {
			var r *core.Result
			if r, err = s.protos[shard].ProcessReply(payload); err == nil {
				res.Results[shard] = r
				values[shard] = r.Value
				s.rememberReply(payload)
				s.observe(shard, op, r)
				continue
			}
		}
		if firstErr == nil {
			firstErr = &ShardError{Shard: shard, Err: err}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	merged, err := scanner.MergeScans(op, values)
	if err != nil {
		return nil, err
	}
	res.Merged = merged
	return res, nil
}

// multiRoundTrip sends one pre-sealed INVOKE per shard in a single
// multi-shard frame and returns the per-shard response frames, applying
// the timeout/retry loop to the whole fan-out.
func (s *ShardedSession) multiRoundTrip(invokes [][]byte) ([][]byte, error) {
	encode := func(payloads [][]byte) []byte {
		parts := make([]wire.ShardPart, len(payloads))
		for shard, inv := range payloads {
			parts[shard] = wire.ShardPart{Shard: shard, Payload: inv}
		}
		return wire.EncodeMultiShardFrame(uint32(s.cfg.Gen), parts)
	}
	if err := s.link.send(encode(invokes)); err != nil {
		return nil, fmt.Errorf("client: send multi-invoke: %w", err)
	}
	attempts := 0
	// A server error here rejected the whole frame (it never reached any
	// shard); every context still has its op pending.
	payload, err := s.awaitReply(&attempts, func() ([]byte, error) {
		retries := make([][]byte, len(s.protos))
		for shard, p := range s.protos {
			retry, err := p.RetryMessage()
			if err != nil {
				return nil, &ShardError{Shard: shard, Err: err}
			}
			retries[shard] = retry
		}
		return encode(retries), nil
	})
	if err != nil {
		return nil, err
	}
	frames, err := wire.DecodeMultiResponse(payload)
	if err != nil {
		return nil, err
	}
	if len(frames) != len(s.protos) {
		return nil, fmt.Errorf("client: multi-response covers %d shards, want %d", len(frames), len(s.protos))
	}
	s.rememberReply(payload)
	return frames, nil
}

// ---- Cross-shard transfers (two-phase escrow) ----

// Transfer coordinator phases. The zero value is invalid, so a decoded
// journal entry with phase 0 is recognizably corrupt.
const (
	// TxInit: nothing executed yet.
	TxInit byte = iota + 1
	// TxPrepared: the amount is debited into escrow on the source shard.
	TxPrepared
	// TxCredited: the target account is credited — the transfer is
	// committed; only the escrow burn (settle) remains.
	TxCredited
	// TxSettled: the escrow is burned; the transfer is complete.
	TxSettled
	// TxAborted: the transfer is rolled back (escrow refunded, or never
	// created).
	TxAborted
)

// Transfer is the client-side coordinator state of one cross-shard
// transfer. It is the unit of crash recovery: persist it (Encode) after
// every phase change, and after a crash decode it and re-run RunTransfer
// — every phase is idempotent per transfer ID, so re-driving from the
// journaled phase neither loses nor mints money.
type Transfer struct {
	ID     string
	From   string
	To     string
	Amount int64
	Phase  byte
}

// Encode serializes the transfer for a client-side journal.
func (t *Transfer) Encode() []byte {
	w := wire.NewWriter(32 + len(t.ID) + len(t.From) + len(t.To))
	w.Var([]byte(t.ID))
	w.Var([]byte(t.From))
	w.Var([]byte(t.To))
	w.U64(uint64(t.Amount))
	w.U8(t.Phase)
	return w.Bytes()
}

// DecodeTransfer parses a journal entry produced by Encode.
func DecodeTransfer(b []byte) (*Transfer, error) {
	r := wire.NewReader(b)
	t := &Transfer{
		ID:   string(r.Var()),
		From: string(r.Var()),
		To:   string(r.Var()),
	}
	t.Amount = int64(r.U64())
	t.Phase = r.U8()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("client: decode transfer: %w", err)
	}
	if t.Phase < TxInit || t.Phase > TxAborted {
		return nil, fmt.Errorf("client: decode transfer: bad phase %d", t.Phase)
	}
	return t, nil
}

// TransferOutcome reports how a transfer ended.
type TransferOutcome struct {
	// OK is true when the transfer committed (the target was credited).
	OK bool
	// Code is the counter status of the deciding phase — e.g.
	// counter.StatusInsufficient for a rejected prepare.
	Code byte
}

// NewTransfer allocates a coordinator for a transfer of amount from one
// account to another, with a fresh unique transfer ID. The caller should
// journal it before calling RunTransfer if it wants crash recovery.
func (s *ShardedSession) NewTransfer(from, to string, amount int64) (*Transfer, error) {
	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return nil, fmt.Errorf("client: transfer id: %w", err)
	}
	return &Transfer{
		ID:     fmt.Sprintf("c%d-%s", s.ID(), hex.EncodeToString(raw[:])),
		From:   from,
		To:     to,
		Amount: amount,
		Phase:  TxInit,
	}, nil
}

// TransferShards resolves the source and target shard of a transfer.
func (s *ShardedSession) TransferShards(t *Transfer) (src, dst int) {
	n := len(s.protos)
	return service.ShardIndex(t.From, n), service.ShardIndex(t.To, n)
}

// RunTransfer drives a transfer from its current phase to completion:
// prepare on the source shard, credit on the target shard, settle back
// on the source. Each phase is an ordinary attested INVOKE, so rollback
// or forking of either shard during the transfer is detected exactly
// like on any other operation.
//
// journal, if non-nil, is called after every phase transition (with the
// updated Transfer) so the caller can persist coordinator state; a
// journal error stops the run with the phase already advanced in memory.
//
// On an error (timeout, halted shard, journal failure) the transfer
// stays at its last journaled phase. The caller may Recover the affected
// shard's pending operation and re-run RunTransfer — repeated phases
// answer idempotently — or, for phases before the credit, give up with
// AbortTransfer.
//
// Every transfer goes through the escrow phases, even when source and
// target happen to share a shard: the bank's single atomic transfer
// operation would be one op instead of three, but it has no transfer id
// and therefore no idempotency — a coordinator resuming it after a lost
// reply could execute it twice. (Callers that do not need crash-resume
// can still issue counter.Transfer directly through Do.)
func (s *ShardedSession) RunTransfer(t *Transfer, journal func(*Transfer) error) (*TransferOutcome, error) {
	src, dst := s.TransferShards(t)
	advance := func(phase byte) error {
		t.Phase = phase
		if journal != nil {
			if err := journal(t); err != nil {
				return fmt.Errorf("client: transfer journal: %w", err)
			}
		}
		return nil
	}

	for {
		switch t.Phase {
		case TxInit:
			res, err := s.DoOn(src, counter.Prepare(t.ID, t.From, t.Amount))
			if err != nil {
				return nil, &ShardError{Shard: src, Err: err}
			}
			cr, err := counter.DecodeResult(res.Value)
			if err != nil {
				return nil, err
			}
			switch cr.Code {
			case counter.StatusOK:
				if err := advance(TxPrepared); err != nil {
					return nil, err
				}
			case counter.StatusAborted:
				if err := advance(TxAborted); err != nil {
					return nil, err
				}
			default: // StatusInsufficient
				if err := advance(TxAborted); err != nil {
					return nil, err
				}
				return &TransferOutcome{OK: false, Code: cr.Code}, nil
			}

		case TxPrepared:
			res, err := s.DoOn(dst, counter.Credit(t.ID, t.To, t.Amount))
			if err != nil {
				return nil, &ShardError{Shard: dst, Err: err}
			}
			cr, err := counter.DecodeResult(res.Value)
			if err != nil {
				return nil, err
			}
			switch cr.Code {
			case counter.StatusOK, counter.StatusDuplicate:
				// Duplicate: a previous run of this coordinator already
				// credited — the transfer is committed either way.
				if err := advance(TxCredited); err != nil {
					return nil, err
				}
			default:
				return nil, fmt.Errorf("client: transfer %s: credit refused with status %d", t.ID, cr.Code)
			}

		case TxCredited:
			res, err := s.DoOn(src, counter.Settle(t.ID, t.From))
			if err != nil {
				return nil, &ShardError{Shard: src, Err: err}
			}
			cr, err := counter.DecodeResult(res.Value)
			if err != nil {
				return nil, err
			}
			if cr.Code != counter.StatusOK {
				// StatusAborted here would mean an abort raced the credit
				// — the coordinator violated its own state machine.
				return nil, fmt.Errorf("client: transfer %s: settle refused with status %d", t.ID, cr.Code)
			}
			if err := advance(TxSettled); err != nil {
				return nil, err
			}

		case TxSettled:
			return &TransferOutcome{OK: true, Code: counter.StatusOK}, nil

		case TxAborted:
			return &TransferOutcome{OK: false, Code: counter.StatusAborted}, nil

		default:
			return nil, fmt.Errorf("client: transfer %s: unknown phase %d", t.ID, t.Phase)
		}
	}
}

// AbortTransfer rolls a transfer back: the escrow (if any) is refunded on
// the source shard and the transfer id is tombstoned so no later phase
// can resurrect it. It is the giving-up path after the target shard
// halted or timed out — and is refused once the transfer reached
// TxCredited, because the credit already happened and a refund would
// mint money.
//
// It is also refused while an operation is still pending on the target
// shard: that operation is (or may be) the transfer's CREDIT, executed
// but unacknowledged — refunding the escrow before learning its outcome
// could mint the amount. Recover the target shard first; if the credit
// turns out to have executed, re-run RunTransfer (the re-issued credit
// answers StatusDuplicate and the transfer settles).
func (s *ShardedSession) AbortTransfer(t *Transfer, journal func(*Transfer) error) error {
	switch t.Phase {
	case TxCredited, TxSettled:
		return fmt.Errorf("client: transfer %s already credited; cannot abort", t.ID)
	case TxAborted:
		return nil
	}
	src, dst := s.TransferShards(t)
	if t.Phase == TxPrepared && s.protos[dst].HasPending() {
		return fmt.Errorf("client: transfer %s: operation pending on target shard %d — its outcome may be the credit; Recover(%d) before aborting", t.ID, dst, dst)
	}
	res, err := s.DoOn(src, counter.Abort(t.ID, t.From))
	if err != nil {
		return &ShardError{Shard: src, Err: err}
	}
	cr, err := counter.DecodeResult(res.Value)
	if err != nil {
		return err
	}
	if cr.Code == counter.StatusSettled {
		return fmt.Errorf("client: transfer %s already settled; cannot abort", t.ID)
	}
	t.Phase = TxAborted
	if journal != nil {
		if jerr := journal(t); jerr != nil {
			return fmt.Errorf("client: transfer journal: %w", jerr)
		}
	}
	return nil
}
