// Package counter implements a second functionality F: a set of named
// integer accounts with increment, read and transfer operations. It exists
// to demonstrate that the LCM framework is generic over the enclave
// application (the paper's framework accepts any operation processor plus
// serialization interface, Sec. 5.2) and serves as the workload for the
// membership and migration examples.
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
	"maps"
	"sort"
	"sync"

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

// Bank is the counter service. It implements service.Service and
// service.DeltaService: every mutation marks the touched accounts dirty,
// and Delta serializes just those balances — so under LCM the bank's
// per-batch sealed record grows with the batch, not with the number of
// accounts (the same O(batch) persistence the kvs workload enjoys).
type Bank struct {
	accounts map[string]int64
	dirty    map[string]struct{}
	txs      map[string]txRecord
	dirtyTx  map[string]struct{}
	// deletedTx collects transaction records pruned since the last Delta
	// or Snapshot, so the deletions replay deterministically from the
	// sealed record (a delta carries them as tombstone keys).
	deletedTx map[string]struct{}
	// epoch is the latest membership epoch AdvanceEpoch saw; purely
	// informational (stamping uses the epoch passed in).
	epoch uint64

	// mu orders mutations against concurrent snapshot readers
	// (service.SnapshotReader); every mutation goes through setAccount /
	// setTx, which record undo-overlay pre-images under the write lock
	// (once EndBatch has armed the overlays). The writer's own plain
	// reads need no lock — mutations happen only on the writer's
	// goroutine, and readers never write.
	mu          sync.RWMutex
	acctOverlay service.Overlay[int64]
	txOverlay   service.Overlay[txRecord]
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

// setAccount assigns an account balance, recording its pre-image for
// pending snapshot readers. Callers mark the dirty set themselves (a
// healed delta must not re-dirty).
func (b *Bank) setAccount(name string, v int64) {
	b.mu.Lock()
	old, ok := b.accounts[name]
	b.acctOverlay.Record(name, old, ok)
	b.accounts[name] = v
	b.mu.Unlock()
}

// setTx assigns a transaction record, recording its pre-image.
func (b *Bank) setTx(key string, rec txRecord) {
	b.mu.Lock()
	old, ok := b.txs[key]
	b.txOverlay.Record(key, old, ok)
	b.txs[key] = rec
	b.mu.Unlock()
}

// deleteTx removes a transaction record, recording its pre-image so
// pending snapshot readers still observe it at the durable snapshot.
func (b *Bank) deleteTx(key string) {
	b.mu.Lock()
	old, ok := b.txs[key]
	b.txOverlay.Record(key, old, ok)
	delete(b.txs, key)
	b.mu.Unlock()
}

// New returns an empty bank.
func New() *Bank {
	return &Bank{
		accounts:  make(map[string]int64),
		dirty:     make(map[string]struct{}),
		txs:       make(map[string]txRecord),
		dirtyTx:   make(map[string]struct{}),
		deletedTx: make(map[string]struct{}),
	}
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
	b.epoch = epoch
	for key, rec := range b.txs {
		if rec.State == txEscrowed {
			continue
		}
		switch {
		case rec.Epoch == 0:
			rec.Epoch = epoch
			b.setTx(key, rec)
			b.dirtyTx[key] = struct{}{}
		case rec.Epoch+PruneHorizonEpochs <= epoch:
			b.deleteTx(key)
			delete(b.dirtyTx, key)
			b.deletedTx[key] = struct{}{}
		}
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
		b.setAccount(name, b.accounts[name]+delta)
		b.dirty[name] = struct{}{}
		return encodeBalance(StatusOK, b.accounts[name]), nil

	case opRead:
		name := string(r.Var())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: read: %v", ErrMalformedOp, err)
		}
		return encodeBalance(StatusOK, b.accounts[name]), nil

	case opTransfer:
		from := string(r.Var())
		to := string(r.Var())
		amount := int64(r.U64())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: transfer: %v", ErrMalformedOp, err)
		}
		if amount < 0 || b.accounts[from] < amount {
			return encodeBalance(StatusInsufficient, b.accounts[from]), nil
		}
		b.setAccount(from, b.accounts[from]-amount)
		b.setAccount(to, b.accounts[to]+amount)
		b.dirty[from] = struct{}{}
		b.dirty[to] = struct{}{}
		return encodeBalance(StatusOK, b.accounts[from]), nil

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

	case opEscrowTotal:
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: escrowtotal: %v", ErrMalformedOp, err)
		}
		return encodeBalance(StatusOK, b.EscrowTotal()), nil

	default:
		return nil, fmt.Errorf("%w: unknown tag %d", ErrMalformedOp, op[0])
	}
}

// prepare debits the source account into an escrow record. Repeats for a
// known transfer id return the recorded outcome instead of debiting again.
func (b *Bank) prepare(id, from string, amount int64) []byte {
	key := srcKey(id)
	if rec, ok := b.txs[key]; ok {
		switch rec.State {
		case txEscrowed, txSettled:
			return encodeBalance(StatusOK, b.accounts[rec.Account])
		default: // txAborted
			return encodeBalance(StatusAborted, b.accounts[from])
		}
	}
	if amount < 0 || b.accounts[from] < amount {
		return encodeBalance(StatusInsufficient, b.accounts[from])
	}
	b.setAccount(from, b.accounts[from]-amount)
	b.dirty[from] = struct{}{}
	b.setTx(key, txRecord{State: txEscrowed, Account: from, Amount: amount})
	b.dirtyTx[key] = struct{}{}
	return encodeBalance(StatusOK, b.accounts[from])
}

// credit applies the target-shard half of a transfer exactly once per
// transfer id: a re-issued credit (a coordinator that lost its journal
// after the first one) is answered with StatusDuplicate and mints nothing.
func (b *Bank) credit(id, to string, amount int64) []byte {
	key := dstKey(id)
	if _, ok := b.txs[key]; ok {
		return encodeBalance(StatusDuplicate, b.accounts[to])
	}
	if amount < 0 {
		return encodeBalance(StatusInsufficient, b.accounts[to])
	}
	b.setAccount(to, b.accounts[to]+amount)
	b.dirty[to] = struct{}{}
	b.setTx(key, txRecord{State: txCredited, Account: to, Amount: amount})
	b.dirtyTx[key] = struct{}{}
	return encodeBalance(StatusOK, b.accounts[to])
}

// settle burns an escrow record after the coordinator confirmed the
// credit: the funds have permanently left this shard.
func (b *Bank) settle(id string) []byte {
	key := srcKey(id)
	rec, ok := b.txs[key]
	if !ok {
		return encodeBalance(StatusUnknown, 0)
	}
	switch rec.State {
	case txEscrowed:
		rec.State = txSettled
		b.setTx(key, rec)
		b.dirtyTx[key] = struct{}{}
		return encodeBalance(StatusOK, b.accounts[rec.Account])
	case txSettled:
		return encodeBalance(StatusOK, b.accounts[rec.Account])
	default: // txAborted: the escrow was refunded; the credit must not stand
		return encodeBalance(StatusAborted, b.accounts[rec.Account])
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
	rec, ok := b.txs[key]
	if !ok {
		b.setTx(key, txRecord{State: txAborted, Account: from})
		b.dirtyTx[key] = struct{}{}
		return encodeBalance(StatusOK, 0)
	}
	switch rec.State {
	case txEscrowed:
		b.setAccount(rec.Account, b.accounts[rec.Account]+rec.Amount)
		b.dirty[rec.Account] = struct{}{}
		rec.State = txAborted
		b.setTx(key, rec)
		b.dirtyTx[key] = struct{}{}
		return encodeBalance(StatusOK, b.accounts[rec.Account])
	case txAborted:
		return encodeBalance(StatusOK, b.accounts[rec.Account])
	default: // txSettled
		return encodeBalance(StatusSettled, b.accounts[rec.Account])
	}
}

// EscrowTotal sums the amounts currently held in escrow (prepared but not
// yet settled or aborted) on this shard — the in-flight funds that the
// conservation invariant Σ balances + Σ escrow accounts for.
func (b *Bank) EscrowTotal() int64 {
	var total int64
	for _, rec := range b.txs {
		if rec.State == txEscrowed {
			total += rec.Amount
		}
	}
	return total
}

// TotalBalance sums every account balance on this shard.
func (b *Bank) TotalBalance() int64 {
	var total int64
	for _, v := range b.accounts {
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

// encodeTxRecord appends one transaction record (keyed) to w.
func encodeTxRecord(w *wire.Writer, key string, rec txRecord) {
	w.Var([]byte(key))
	w.U8(rec.State)
	w.Var([]byte(rec.Account))
	w.U64(uint64(rec.Amount))
	w.U64(rec.Epoch)
}

// decodeTxRecord reads one keyed transaction record.
func decodeTxRecord(r *wire.Reader) (string, txRecord) {
	key := string(r.VarView())
	rec := txRecord{State: r.U8(), Account: string(r.VarView())}
	rec.Amount = int64(r.U64())
	rec.Epoch = r.U64()
	return key, rec
}

// sortedKeys returns the keys of a string-keyed map in sorted order, for
// the deterministic encodings every sealed blob requires.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Snapshot implements service.Service with a deterministic encoding:
// the sorted account balances followed by the sorted escrow/credit
// transaction records.
func (b *Bank) Snapshot() ([]byte, error) {
	names := sortedKeys(b.accounts)
	w := wire.NewWriter(16 + len(names)*24 + len(b.txs)*40)
	w.U32(uint32(len(names)))
	for _, n := range names {
		w.Var([]byte(n))
		w.U64(uint64(b.accounts[n]))
	}
	txKeys := sortedKeys(b.txs)
	w.U32(uint32(len(txKeys)))
	for _, k := range txKeys {
		encodeTxRecord(w, k, b.txs[k])
	}
	// A snapshot captures every pending change — including the absence of
	// pruned records — so the dirty and deleted sets restart empty (the
	// DeltaService contract).
	clear(b.dirty)
	clear(b.dirtyTx)
	clear(b.deletedTx)
	return w.Bytes(), nil
}

// Freeze implements service.Freezer: balances and records are values.
func (b *Bank) Freeze() func() ([]byte, error) {
	return (&Bank{accounts: maps.Clone(b.accounts), txs: maps.Clone(b.txs)}).Snapshot
}

// Restore implements service.Service.
func (b *Bank) Restore(snapshot []byte) error {
	r := wire.NewReader(snapshot)
	n := r.Count(12)
	accounts := make(map[string]int64, n)
	for i := 0; i < n; i++ {
		name := string(r.VarView())
		accounts[name] = int64(r.U64())
	}
	ntx := r.Count(25)
	txs := make(map[string]txRecord, ntx)
	for i := 0; i < ntx; i++ {
		key, rec := decodeTxRecord(r)
		txs[key] = rec
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("counter: restore: %w", err)
	}
	b.mu.Lock()
	b.accounts = accounts
	b.txs = txs
	b.acctOverlay.Reset()
	b.txOverlay.Reset()
	b.mu.Unlock()
	b.dirty = make(map[string]struct{})
	b.dirtyTx = make(map[string]struct{})
	b.deletedTx = make(map[string]struct{})
	return nil
}

// Delta implements service.DeltaService: it serializes the balances of
// every account and the full record of every transaction touched since
// the last Delta or Snapshot (sorted, so identical change sets encode
// identically), followed by the keys of transaction records pruned in
// the window (tombstones — accounts are still never deleted), and
// resets the tracking.
func (b *Bank) Delta() ([]byte, error) {
	// Net deletions against re-creations within the window: a key pruned
	// and then re-created (a late abort tombstone after its predecessor
	// pruned) is fully described by its assignment; a key touched and
	// then pruned needs only the tombstone.
	for k := range b.deletedTx {
		if _, live := b.txs[k]; live {
			delete(b.deletedTx, k)
		} else {
			delete(b.dirtyTx, k)
		}
	}
	names := sortedKeys(b.dirty)
	w := wire.NewWriter(20 + len(names)*24 + len(b.dirtyTx)*48 + len(b.deletedTx)*16)
	w.U32(uint32(len(names)))
	for _, n := range names {
		w.Var([]byte(n))
		w.U64(uint64(b.accounts[n]))
	}
	txKeys := sortedKeys(b.dirtyTx)
	w.U32(uint32(len(txKeys)))
	for _, k := range txKeys {
		encodeTxRecord(w, k, b.txs[k])
	}
	delKeys := sortedKeys(b.deletedTx)
	w.U32(uint32(len(delKeys)))
	for _, k := range delKeys {
		w.Var([]byte(k))
	}
	clear(b.dirty)
	clear(b.dirtyTx)
	clear(b.deletedTx)
	return w.Bytes(), nil
}

// ApplyDelta implements service.DeltaService. Changes record pre-images
// like Apply's, so a healed chain suffix stays invisible to snapshot
// readers until it is reported durable.
func (b *Bank) ApplyDelta(delta []byte) error {
	r := wire.NewReader(delta)
	n := r.U32()
	for i := uint32(0); i < n; i++ {
		name := string(r.Var())
		balance := int64(r.U64())
		if r.Err() != nil {
			break
		}
		b.setAccount(name, balance)
	}
	ntx := r.U32()
	for i := uint32(0); i < ntx; i++ {
		key, rec := decodeTxRecord(r)
		if r.Err() != nil {
			break
		}
		b.setTx(key, rec)
	}
	ndel := r.U32()
	for i := uint32(0); i < ndel; i++ {
		key := string(r.Var())
		if r.Err() != nil {
			break
		}
		b.deleteTx(key)
	}
	if err := r.Done(); err != nil {
		return fmt.Errorf("counter: apply delta: %w", err)
	}
	return nil
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
func (b *Bank) Footprint() int64 {
	var total int64
	for n := range b.accounts {
		total += int64(len(n)) + 8 + 48
	}
	for k, rec := range b.txs {
		total += int64(len(k)+len(rec.Account)) + 17 + 48
	}
	return total
}

// PartitionState implements service.Resharder. Accounts partition by
// their own name; escrow/credit transaction records partition by the
// account they belong to (the source account for src/ records, the
// credited account for dst/ records) — exactly the account the
// coordinator routes that transfer id's remaining phases by, so a late
// settle, abort or duplicate credit still finds its record after the
// move. Fragments use the snapshot encoding; dirty tracking is untouched.
func (b *Bank) PartitionState(n int) ([][]byte, error) {
	if n < 1 {
		return nil, fmt.Errorf("counter: partition into %d shards", n)
	}
	acctBuckets := make([][]string, n)
	for name := range b.accounts {
		j := service.ShardIndex(name, n)
		acctBuckets[j] = append(acctBuckets[j], name)
	}
	txBuckets := make([][]string, n)
	for key, rec := range b.txs {
		j := service.ShardIndex(rec.Account, n)
		txBuckets[j] = append(txBuckets[j], key)
	}
	fragments := make([][]byte, n)
	for j := range fragments {
		names, txKeys := acctBuckets[j], txBuckets[j]
		sort.Strings(names)
		sort.Strings(txKeys)
		w := wire.NewWriter(16 + len(names)*24 + len(txKeys)*40)
		w.U32(uint32(len(names)))
		for _, name := range names {
			w.Var([]byte(name))
			w.U64(uint64(b.accounts[name]))
		}
		w.U32(uint32(len(txKeys)))
		for _, k := range txKeys {
			encodeTxRecord(w, k, b.txs[k])
		}
		fragments[j] = w.Bytes()
	}
	return fragments, nil
}

// MergeState implements service.Resharder: the union of the fragments
// becomes the bank's state. Accounts and transaction records are disjoint
// across source shards; a duplicate means inconsistent fragments.
func (b *Bank) MergeState(fragments [][]byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, frag := range fragments {
		r := wire.NewReader(frag)
		n := r.U32()
		for j := uint32(0); j < n; j++ {
			name := string(r.Var())
			balance := int64(r.U64())
			if r.Err() != nil {
				break
			}
			if _, ok := b.accounts[name]; ok {
				return fmt.Errorf("counter: merge state: account %q in more than one fragment", name)
			}
			b.accounts[name] = balance
		}
		ntx := r.U32()
		for j := uint32(0); j < ntx; j++ {
			key, rec := decodeTxRecord(r)
			if r.Err() != nil {
				break
			}
			if _, ok := b.txs[key]; ok {
				return fmt.Errorf("counter: merge state: transaction %q in more than one fragment", key)
			}
			b.txs[key] = rec
		}
		if err := r.Done(); err != nil {
			return fmt.Errorf("counter: merge state: fragment %d: %w", i, err)
		}
	}
	return nil
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
	if len(op) == 0 {
		return nil, ErrMalformedOp
	}
	r := wire.NewReader(op[1:])
	switch op[0] {
	case opRead:
		name := string(r.Var())
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: read: %v", ErrMalformedOp, err)
		}
		b.mu.RLock()
		bal, existed, pinned := b.acctOverlay.Resolve(name)
		if !pinned {
			bal = b.accounts[name]
		} else if !existed {
			bal = 0 // account did not exist at the snapshot: zero balance
		}
		b.mu.RUnlock()
		return encodeBalance(StatusOK, bal), nil

	case opEscrowTotal:
		if err := r.Done(); err != nil {
			return nil, fmt.Errorf("%w: escrowtotal: %v", ErrMalformedOp, err)
		}
		b.mu.RLock()
		var total int64
		for key, rec := range b.txs {
			if pre, existed, pinned := b.txOverlay.Resolve(key); pinned {
				if !existed {
					continue // record created after the snapshot
				}
				rec = pre
			}
			if rec.State == txEscrowed {
				total += rec.Amount
			}
		}
		// Records pruned after the snapshot are no longer in the live map
		// but still pinned: cover them too, so a reader at the durable
		// snapshot never under-counts the escrow.
		b.txOverlay.Pinned(func(key string, pre txRecord, existed bool) bool {
			if _, live := b.txs[key]; live {
				return true // counted (via its pre-image) above
			}
			if existed && pre.State == txEscrowed {
				total += pre.Amount
			}
			return true
		})
		b.mu.RUnlock()
		return encodeBalance(StatusOK, total), nil

	default:
		return nil, fmt.Errorf("%w: not a read-only op (tag %d)", ErrMalformedOp, op[0])
	}
}

// EndBatch implements service.SnapshotReader.
func (b *Bank) EndBatch(seq uint64) {
	b.mu.Lock()
	b.acctOverlay.Close(seq)
	b.txOverlay.Close(seq)
	b.mu.Unlock()
}

// AdvanceDurable implements service.SnapshotReader.
func (b *Bank) AdvanceDurable(seq uint64) {
	b.mu.Lock()
	b.acctOverlay.Advance(seq)
	b.txOverlay.Advance(seq)
	b.mu.Unlock()
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
