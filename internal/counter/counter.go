// Package counter implements a second functionality F: a set of named
// integer accounts with increment, read and transfer operations. It exists
// to demonstrate that the LCM framework is generic over the enclave
// application (the paper's framework accepts any operation processor plus
// serialization interface, Sec. 5.2) and serves as the workload for the
// membership and migration examples (a migration reshards the bank onto
// another server).
//
// Transfers make the service's consistency guarantees observable: under a
// forking attack, two partitions can both spend the same balance — exactly
// the class of violation fork-linearizability lets clients detect.
//
// # Cross-shard transfers (two-phase escrow)
//
// A sharded deployment partitions the accounts over independent LCM
// instances, so a transfer whose source and target hash to different
// shards cannot execute as one operation. The bank therefore also exposes
// the per-shard halves of a client-coordinated two-phase escrow
// (client.Transfer drives them):
//
//	PREPARE (source shard)  debit the source account into an escrow
//	                        record keyed by the transfer id
//	CREDIT  (target shard)  credit the target account, recording the
//	                        transfer id so a re-issued credit is rejected
//	                        as a duplicate instead of minting money
//	SETTLE  (source shard)  burn the escrow record after a confirmed
//	                        credit — the funds have left this shard
//	ABORT   (source shard)  refund the escrow record to the source
//	                        account (timeout / target-halt path)
//
// Each phase is an ordinary attested INVOKE on one shard, so rollback or
// forking of either shard during a transfer is detected by that shard's
// LCM chain like any other operation. Phases are idempotent per transfer
// id: a coordinator that crashed mid-transfer re-drives the remaining
// phases and every repeated phase returns its recorded outcome. Money is
// conserved at every instant as
//
//	Σ balances + Σ escrowed amounts = const
//
// except in the window between CREDIT and SETTLE, where the amount is
// counted on both shards until the coordinator burns the escrow; driving
// every in-flight transfer to completion (settle or abort) restores
// exact conservation, which the crash/restart fuzz asserts.
//
// Transaction records in a terminal state (settled, aborted, credited)
// fence late phases for their id: a settled/aborted source record stops
// a re-driven phase, and a credited target record is what rejects a
// re-issued credit. Dropping one too early would reopen a
// double-spend/mint window, so pruning needs a distributed horizon —
// "no coordinator can still retry ids older than X". Membership epochs
// (service.EpochAdvancer) provide exactly that: epochs are fenced by a
// trusted monotonic counter (so a rollback cannot reuse one), and a
// coordinator that has produced no liveness signal for
// TrustedConfig.EvictAfterEpochs epochs is evicted and cut off by the
// kC rotation — it can never retry again. The bank therefore stamps
// each record at the first epoch seal that observes it terminal and
// prunes it PruneHorizonEpochs epochs later; escrowed (in-flight)
// records are never pruned. Deployments without epoch seals keep the
// historical retain-forever behaviour.
package counter

import (
	"errors"
	"fmt"

	"lcm/internal/service"
	"lcm/internal/wire"
)

// Operation tags.
const (
	opInc byte = iota + 1
	opRead
	opTransfer
	opPrepare
	opCredit
	opSettle
	opAbort
	opEscrowTotal
)

// Result status codes (exported as Result.Code).
const (
	// StatusOK reports a completed operation.
	StatusOK byte = iota + 1
	// StatusInsufficient reports a transfer or prepare rejected because
	// the source balance does not cover the amount.
	StatusInsufficient
	// StatusAborted reports a phase against a transfer id that was
	// aborted: the escrow was (or will never be) refunded, so the
	// coordinator must not credit.
	StatusAborted
	// StatusSettled reports an abort against a transfer that already
	// settled — the credit happened, so the refund is refused.
	StatusSettled
	// StatusDuplicate reports a credit whose transfer id was already
	// applied on this shard; the balance is unchanged (no double mint).
	StatusDuplicate
	// StatusUnknown reports a settle for a transfer id this shard never
	// escrowed.
	StatusUnknown
)

// Escrow transaction record states.
const (
	txEscrowed byte = iota + 1
	txSettled
	txAborted
	txCredited
)

// txRecord tracks one transfer id's lifecycle on this shard: the escrow
// held by a source shard, or the applied credit remembered by a target
// shard for duplicate rejection.
type txRecord struct {
	State   byte
	Account string // debited (source) or credited (target) account
	Amount  int64
	// Epoch is the membership epoch at whose seal this record was first
	// observed in a terminal state (settled/aborted/credited); 0 means
	// not yet observed (or no epoch seals in this deployment). A
	// terminal record prunes PruneHorizonEpochs epochs after its stamp.
	Epoch uint64
}

// PruneHorizonEpochs is how many membership epochs a terminal
// transaction record outlives its stamping epoch before AdvanceEpoch
// prunes it. Two epochs comfortably cover any coordinator that is still
// live (a live coordinator re-drives its phases well within one epoch;
// one silent past the eviction horizon is cut off by the kC rotation
// and can never retry).
const PruneHorizonEpochs = 2

// srcKey and dstKey namespace transfer ids by role, so a transfer whose
// source and target accounts happen to share a shard cannot collide with
// itself.
func srcKey(id string) string { return "src/" + id }
func dstKey(id string) string { return "dst/" + id }

// ErrMalformedOp reports an operation that does not decode.
var ErrMalformedOp = errors.New("counter: malformed operation")

// Bank is the counter service: its operation processor over two
// service.Keyed maps, the account balances and the transaction records.
// Every mutation marks what it touched dirty, and Delta serializes just
// those entries — so under LCM the bank's per-batch sealed record grows
// with the batch, not with the number of accounts (the same O(batch)
// persistence the kvs workload enjoys).
type Bank struct {
	accounts *service.Keyed[int64]
	txs      *service.Keyed[txRecord]
}

var (
	_ service.Service        = (*Bank)(nil)
	_ service.DeltaService   = (*Bank)(nil)
	_ service.Sharder        = (*Bank)(nil)
	_ service.Resharder      = (*Bank)(nil)
	_ service.SnapshotReader = (*Bank)(nil)
	_ service.EpochAdvancer  = (*Bank)(nil)
	_ service.Freezer        = (*Bank)(nil)
)

// balanceCodec and txCodec encode an account balance and a transaction
// record, and charge each entry its key, its fields and 48 bytes of map
// structure.
var (
	balanceCodec = service.Codec[int64]{
		Size:      func(int64) int { return 8 },
		Put:       func(w *wire.Writer, v int64) { w.U64(uint64(v)) },
		Get:       func(r *wire.Reader) int64 { return int64(r.U64()) },
		Footprint: func(name string, _ int64) int64 { return int64(len(name)) + 8 + 48 },
	}
	txCodec = service.Codec[txRecord]{
		Size: func(rec txRecord) int { return 1 + 4 + len(rec.Account) + 16 },
		Put: func(w *wire.Writer, rec txRecord) {
			w.U8(rec.State)
			w.Var([]byte(rec.Account))
			w.U64(uint64(rec.Amount))
			w.U64(rec.Epoch)
		},
		Get: func(r *wire.Reader) txRecord {
			rec := txRecord{State: r.U8(), Account: string(r.VarView())}
			rec.Amount = int64(r.U64())
			rec.Epoch = r.U64()
			return rec
		},
		Footprint: func(key string, rec txRecord) int64 { return int64(len(key)+len(rec.Account)) + 17 + 48 },
		// A record moves with the account the coordinator routes its
		// transfer id's remaining phases by (PartitionState).
		Route: func(_ string, rec txRecord) string { return rec.Account },
	}
)

// New returns an empty bank.
func New() *Bank {
	return &Bank{accounts: service.NewKeyed(balanceCodec), txs: service.NewKeyed(txCodec)}
}

// balance returns an account's balance; an absent account holds zero.
func (b *Bank) balance(name string) int64 {
	v, _ := b.accounts.Get(name)
	return v
}

// AdvanceEpoch implements service.EpochAdvancer: epoch-fenced
// housekeeping run inside the enclave at every membership epoch seal.
// Terminal transaction records (settled/aborted/credited) not yet
// stamped get stamped with this epoch; records stamped
// PruneHorizonEpochs or more epochs ago are pruned. Escrowed records —
// in-flight funds the conservation invariant counts — are never
// touched. Both the stamps and the deletions land in the seal's own
// delta record (or snapshot), so recovery replays them exactly.
func (b *Bank) AdvanceEpoch(epoch uint64) {
	var pruned []string // deleted after the walk, which must not delete
	for key, rec := range b.txs.Range("") {
		if rec.State == txEscrowed {
			continue
		}
		switch {
		case rec.Epoch == 0:
			rec.Epoch = epoch
			b.txs.Set(key, rec)
		case rec.Epoch+PruneHorizonEpochs <= epoch:
			pruned = append(pruned, key)
		}
	}
	for _, key := range pruned {
		b.txs.Delete(key)
	}
}

// Factory returns a service.Factory producing empty banks.
func Factory() service.Factory {
	return func() service.Service { return New() }
}

// Apply implements service.Service.
func (b *Bank) Apply(op []byte) ([]byte, error) {
	if len(op) == 0 {
		return nil, ErrMalformedOp
	}
	r := wire.NewReader(op[1:])
	switch op[0] {
	case opInc:
		name := string(r.Var())
		delta := int64(r.U64())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: inc: %v", ErrMalformedOp, err)
		}
		b.accounts.Set(name, b.balance(name)+delta)
		return encodeBalance(StatusOK, b.balance(name)), nil

	case opRead, opEscrowTotal:
		return b.read(op, false)

	case opTransfer:
		from := string(r.Var())
		to := string(r.Var())
		amount := int64(r.U64())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: transfer: %v", ErrMalformedOp, err)
		}
		if amount < 0 || b.balance(from) < amount {
			return encodeBalance(StatusInsufficient, b.balance(from)), nil
		}
		b.accounts.Set(from, b.balance(from)-amount)
		b.accounts.Set(to, b.balance(to)+amount)
		return encodeBalance(StatusOK, b.balance(from)), nil

	case opPrepare:
		id := string(r.Var())
		from := string(r.Var())
		amount := int64(r.U64())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: prepare: %v", ErrMalformedOp, err)
		}
		return b.prepare(id, from, amount), nil

	case opCredit:
		id := string(r.Var())
		to := string(r.Var())
		amount := int64(r.U64())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: credit: %v", ErrMalformedOp, err)
		}
		return b.credit(id, to, amount), nil

	case opSettle:
		id := string(r.Var())
		r.Var() // source account, carried for client-side routing only
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: settle: %v", ErrMalformedOp, err)
		}
		return b.settle(id), nil

	case opAbort:
		id := string(r.Var())
		from := string(r.Var()) // source account: routing, and tombstone ownership
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: abort: %v", ErrMalformedOp, err)
		}
		return b.abort(id, from), nil

	default:
		return nil, fmt.Errorf("%w: unknown tag %d", ErrMalformedOp, op[0])
	}
}

// prepare debits the source account into an escrow record. Repeats for a
// known transfer id return the recorded outcome instead of debiting again.
func (b *Bank) prepare(id, from string, amount int64) []byte {
	key := srcKey(id)
	if rec, ok := b.txs.Get(key); ok {
		switch rec.State {
		case txEscrowed, txSettled:
			return encodeBalance(StatusOK, b.balance(rec.Account))
		default: // txAborted
			return encodeBalance(StatusAborted, b.balance(from))
		}
	}
	if amount < 0 || b.balance(from) < amount {
		return encodeBalance(StatusInsufficient, b.balance(from))
	}
	b.accounts.Set(from, b.balance(from)-amount)
	b.txs.Set(key, txRecord{State: txEscrowed, Account: from, Amount: amount})
	return encodeBalance(StatusOK, b.balance(from))
}

// credit applies the target-shard half of a transfer exactly once per
// transfer id: a re-issued credit (a coordinator that lost its journal
// after the first one) is answered with StatusDuplicate and mints nothing.
func (b *Bank) credit(id, to string, amount int64) []byte {
	key := dstKey(id)
	if _, ok := b.txs.Get(key); ok {
		return encodeBalance(StatusDuplicate, b.balance(to))
	}
	if amount < 0 {
		return encodeBalance(StatusInsufficient, b.balance(to))
	}
	b.accounts.Set(to, b.balance(to)+amount)
	b.txs.Set(key, txRecord{State: txCredited, Account: to, Amount: amount})
	return encodeBalance(StatusOK, b.balance(to))
}

// settle burns an escrow record after the coordinator confirmed the
// credit: the funds have permanently left this shard.
func (b *Bank) settle(id string) []byte {
	key := srcKey(id)
	rec, ok := b.txs.Get(key)
	if !ok {
		return encodeBalance(StatusUnknown, 0)
	}
	switch rec.State {
	case txEscrowed:
		rec.State = txSettled
		b.txs.Set(key, rec)
		return encodeBalance(StatusOK, b.balance(rec.Account))
	case txSettled:
		return encodeBalance(StatusOK, b.balance(rec.Account))
	default: // txAborted: the escrow was refunded; the credit must not stand
		return encodeBalance(StatusAborted, b.balance(rec.Account))
	}
}

// abort refunds an escrow record to its source account. Aborting an
// unknown id records a tombstone so a delayed prepare for it cannot
// resurrect the transfer; aborting a settled transfer is refused (the
// credit already happened — refunding too would mint money). The
// tombstone remembers the source account the coordinator routes this id
// by, so a reshard keeps the tombstone on the shard where a late phase
// for the id would land.
func (b *Bank) abort(id, from string) []byte {
	key := srcKey(id)
	rec, ok := b.txs.Get(key)
	if !ok {
		b.txs.Set(key, txRecord{State: txAborted, Account: from})
		return encodeBalance(StatusOK, 0)
	}
	switch rec.State {
	case txEscrowed:
		b.accounts.Set(rec.Account, b.balance(rec.Account)+rec.Amount)
		rec.State = txAborted
		b.txs.Set(key, rec)
		return encodeBalance(StatusOK, b.balance(rec.Account))
	case txAborted:
		return encodeBalance(StatusOK, b.balance(rec.Account))
	default: // txSettled
		return encodeBalance(StatusSettled, b.balance(rec.Account))
	}
}

// EscrowTotal sums the amounts currently held in escrow (prepared but not
// yet settled or aborted) on this shard — the in-flight funds that the
// conservation invariant Σ balances + Σ escrow accounts for.
func (b *Bank) EscrowTotal() int64 {
	var total int64
	for _, rec := range b.txs.Range("") {
		if rec.State == txEscrowed {
			total += rec.Amount
		}
	}
	return total
}

// TotalBalance sums every account balance on this shard.
func (b *Bank) TotalBalance() int64 {
	var total int64
	for _, v := range b.accounts.Range("") {
		total += v
	}
	return total
}

func encodeBalance(status byte, balance int64) []byte {
	w := wire.NewWriter(9)
	w.U8(status)
	w.U64(uint64(balance))
	return w.Bytes()
}

// Snapshot implements service.Service with a deterministic encoding:
// the sorted account balances, then the sorted escrow/credit transaction
// records, one service.Keyed section each.
func (b *Bank) Snapshot() ([]byte, error) {
	return service.Encode(b.accounts.Snapshot, b.txs.Snapshot), nil
}

// Freeze implements service.Freezer: balances and records are values.
func (b *Bank) Freeze() func() ([]byte, error) {
	return (&Bank{accounts: b.accounts.Freeze(), txs: b.txs.Freeze()}).Snapshot
}

// Restore implements service.Service.
func (b *Bank) Restore(snapshot []byte) error {
	return service.Decode("counter: restore", snapshot, b.accounts.Restore, b.txs.Restore)
}

// Delta implements service.DeltaService: the accounts, then the
// transaction records, touched since the last Delta or Snapshot, one
// service.Keyed delta section each; a pruned record is a del (accounts
// are never deleted). No change is nil.
func (b *Bank) Delta() ([]byte, error) {
	if !b.accounts.Dirty() && !b.txs.Dirty() {
		return nil, nil
	}
	return service.Encode(b.accounts.Delta, b.txs.Delta), nil
}

// ApplyDelta implements service.DeltaService.
func (b *Bank) ApplyDelta(delta []byte) error {
	if len(delta) == 0 {
		return nil // Delta's "no change"
	}
	return service.Decode("counter: apply delta", delta, b.accounts.ApplyDelta, b.txs.ApplyDelta)
}

// ShardKeys implements service.Sharder: increments and reads address one
// account; a transfer touches two, so it is only shardable when both land
// on the same shard (service.ShardOf enforces that — cross-shard pairs go
// through the escrow phases instead). Each escrow phase addresses exactly
// one account: prepare/settle/abort the source, credit the target.
func (b *Bank) ShardKeys(op []byte) []string {
	if len(op) == 0 {
		return nil
	}
	r := wire.NewReader(op[1:])
	switch op[0] {
	case opInc, opRead:
		name := string(r.Var())
		if r.Err() != nil {
			return nil
		}
		return []string{name}
	case opTransfer:
		from := string(r.Var())
		to := string(r.Var())
		if r.Err() != nil {
			return nil
		}
		return []string{from, to}
	case opPrepare, opCredit, opSettle, opAbort:
		r.Var() // transfer id
		account := string(r.Var())
		if r.Err() != nil {
			return nil
		}
		return []string{account}
	default:
		return nil
	}
}

// Footprint implements service.Service.
func (b *Bank) Footprint() int64 { return b.accounts.Footprint() + b.txs.Footprint() }

// PartitionState implements service.Resharder. Accounts partition by
// their own name, transaction records by their account (txCodec's Route):
// the source account for src/ records, the credited one for dst/ records.
// That is the account the coordinator routes the transfer id's remaining
// phases by, so a late settle, abort or duplicate credit still finds its
// record after the move.
func (b *Bank) PartitionState(n int) ([][]byte, error) {
	return service.Partition(n, b.accounts.Partition, b.txs.Partition), nil
}

// MergeState implements service.Resharder: the union of the fragments
// becomes the bank's state; an account or record in two fragments is an
// error.
func (b *Bank) MergeState(fragments [][]byte) error {
	return service.Merge("counter: merge state", fragments, b.accounts.Merge, b.txs.Merge)
}

// ---- Snapshot reads (service.SnapshotReader) ----

// ReadOnly is the stateless read classifier: it reports whether an
// encoded operation can never change state and may therefore travel the
// snapshot-read path (client DoRead). Classification depends only on the
// op encoding, so clients use this without a bank instance; the enclave
// re-checks server-side via IsReadOnly.
func ReadOnly(op []byte) bool {
	return len(op) > 0 && (op[0] == opRead || op[0] == opEscrowTotal)
}

// IsReadOnly implements service.SnapshotReader: balance reads and the
// escrow-total sum never change state.
func (b *Bank) IsReadOnly(op []byte) bool { return ReadOnly(op) }

// SnapshotRead implements service.SnapshotReader. Safe for concurrent
// use with Apply.
func (b *Bank) SnapshotRead(op []byte) ([]byte, error) {
	if !ReadOnly(op) {
		return nil, fmt.Errorf("%w: not a read-only op", ErrMalformedOp)
	}
	return b.read(op, true)
}

// read executes a balance read or the escrow total against the live state
// or, if durable, against the durable snapshot, where a record pruned
// since still counts: a reader never under-counts the escrow.
func (b *Bank) read(op []byte, durable bool) ([]byte, error) {
	r := wire.NewReader(op[1:])
	if op[0] == opEscrowTotal {
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: escrowtotal: %v", ErrMalformedOp, err)
		}
		if !durable {
			return encodeBalance(StatusOK, b.EscrowTotal()), nil
		}
		var total int64
		for _, rec := range b.txs.RangeDurable("") {
			if rec.State == txEscrowed {
				total += rec.Amount
			}
		}
		return encodeBalance(StatusOK, total), nil
	}
	name := string(r.Var())
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("%w: read: %v", ErrMalformedOp, err)
	}
	if !durable {
		return encodeBalance(StatusOK, b.balance(name)), nil
	}
	bal, _ := b.accounts.ReadDurable(name) // absent at the snapshot: zero
	return encodeBalance(StatusOK, bal), nil
}

// EndBatch implements service.SnapshotReader.
func (b *Bank) EndBatch(seq uint64) {
	b.accounts.EndBatch(seq)
	b.txs.EndBatch(seq)
}

// AdvanceDurable implements service.SnapshotReader.
func (b *Bank) AdvanceDurable(seq uint64) {
	b.accounts.AdvanceDurable(seq)
	b.txs.AdvanceDurable(seq)
}

// ---- Operation and result codecs ----

// Inc encodes an increment of delta on the named account.
func Inc(name string, delta int64) []byte {
	w := wire.NewWriter(13 + len(name))
	w.U8(opInc)
	w.Var([]byte(name))
	w.U64(uint64(delta))
	return w.Bytes()
}

// Read encodes a balance read.
func Read(name string) []byte {
	w := wire.NewWriter(5 + len(name))
	w.U8(opRead)
	w.Var([]byte(name))
	return w.Bytes()
}

// Transfer encodes a transfer of amount between accounts. It fails (with
// OK=false in the result) if the source balance is insufficient.
func Transfer(from, to string, amount int64) []byte {
	w := wire.NewWriter(17 + len(from) + len(to))
	w.U8(opTransfer)
	w.Var([]byte(from))
	w.Var([]byte(to))
	w.U64(uint64(amount))
	return w.Bytes()
}

// Prepare encodes the source-shard escrow phase of a cross-shard transfer:
// debit from into an escrow record keyed by the transfer id.
func Prepare(id, from string, amount int64) []byte {
	w := wire.NewWriter(21 + len(id) + len(from))
	w.U8(opPrepare)
	w.Var([]byte(id))
	w.Var([]byte(from))
	w.U64(uint64(amount))
	return w.Bytes()
}

// Credit encodes the target-shard phase: credit to, exactly once per
// transfer id.
func Credit(id, to string, amount int64) []byte {
	w := wire.NewWriter(21 + len(id) + len(to))
	w.U8(opCredit)
	w.Var([]byte(id))
	w.Var([]byte(to))
	w.U64(uint64(amount))
	return w.Bytes()
}

// Settle encodes the escrow burn after a confirmed credit. from is the
// source account, carried so the operation routes to the source shard.
func Settle(id, from string) []byte {
	w := wire.NewWriter(9 + len(id) + len(from))
	w.U8(opSettle)
	w.Var([]byte(id))
	w.Var([]byte(from))
	return w.Bytes()
}

// Abort encodes the escrow refund (the timeout / target-halt path). from
// is the source account, carried so the operation routes to the source
// shard.
func Abort(id, from string) []byte {
	w := wire.NewWriter(9 + len(id) + len(from))
	w.U8(opAbort)
	w.Var([]byte(id))
	w.Var([]byte(from))
	return w.Bytes()
}

// EscrowTotalOp encodes a read of this shard's escrowed total (funds
// prepared but not yet settled or aborted). It addresses no account, so a
// sharded client must target it with DoOn.
func EscrowTotalOp() []byte {
	return []byte{opEscrowTotal}
}

// Result is a decoded counter result.
type Result struct {
	OK      bool  // Code == StatusOK
	Code    byte  // one of the Status* codes
	Balance int64 // resulting (or current) balance of the primary account
}

// DecodeResult parses an operation result.
func DecodeResult(b []byte) (Result, error) {
	r := wire.NewReader(b)
	status := r.U8()
	balance := int64(r.U64())
	if err := r.Done(); err != nil {
		return Result{}, fmt.Errorf("counter: decode result: %w", err)
	}
	switch status {
	case StatusOK, StatusInsufficient, StatusAborted, StatusSettled, StatusDuplicate, StatusUnknown:
		return Result{OK: status == StatusOK, Code: status, Balance: balance}, nil
	default:
		return Result{}, fmt.Errorf("counter: unknown status %d", status)
	}
}
