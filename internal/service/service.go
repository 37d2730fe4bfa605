// Package service defines the stateful application functionality F of the
// system model (Sec. 2.1): a set of operations, each with a response and a
// state change, executed by the trusted execution context via execF.
//
// The same interface is implemented by the key-value store the paper
// evaluates (internal/kvs) and by other applications, and it is consumed
// by the LCM protocol (internal/core) as well as by the SGX and native
// baselines — mirroring the paper's framework design (Sec. 5.2), which
// requires "an operation processor ... and a serialization interface".
//
// Keyed is that serialization interface for state made of named items: a
// service gives it a value codec and keeps its operation processor
// (Apply), and Keyed supplies the snapshot, delta, freeze, partition and
// merge codecs, the footprint and the pre-images snapshot reads need.
// Both bundled services are built on it.
package service

import (
	"errors"
	"fmt"
)

// Service is the functionality F. Implementations need not be
// deterministic (LCM, unlike trusted-counter schemes with replay-based
// recovery, does not require it; see Sec. 3.1) and need not be safe for
// concurrent use: the enclave executes operations sequentially.
type Service interface {
	// Apply executes one operation (execF). The returned result is
	// delivered to the invoking client verbatim. An error reports a
	// malformed operation — a protocol-level failure, not an
	// application-level "not found", which services encode in the result.
	// Recovery never re-executes a write; it may re-execute a read
	// (SnapshotReader.IsReadOnly), whose result must therefore depend only
	// on the state.
	Apply(op []byte) ([]byte, error)

	// Snapshot serializes the full service state.
	Snapshot() ([]byte, error)

	// Restore replaces the service state from a snapshot produced by
	// Snapshot. The snapshot may alias a caller's buffer (the opened state
	// blob): copy what must outlive the call, never retain the slice.
	Restore(snapshot []byte) error

	// Footprint estimates the resident memory of the service state in
	// bytes, used for EPC accounting (Sec. 6.2).
	Footprint() int64
}

// DeltaService is an optional extension for services that can serialize
// incremental state changes. The trusted context uses it to seal only what
// changed in a batch (a delta record) instead of re-sealing the full state,
// turning the per-batch persistence cost from O(state) into O(batch).
//
// Deltas carry state changes, not operations, so LCM's
// no-determinism-required property (Sec. 3.1) is preserved for writes:
// replaying a delta never re-executes one. A read-only op of a
// SnapshotReader that ran before any write in its batch is the exception:
// its record keeps the op, not its result, and recovery re-runs it with
// Apply on the state before the batch's delta to rebuild the reply it
// caches for a retry (see SnapshotReader).
//
// Downstream, delta support is what the rest of the persistence pipeline
// keys on: the host group-commits delta records under shared fsyncs, the
// enclave sizes checkpoints from the observed snapshot/delta ratio, and a
// reshard or migration stages the sealed delta chain, not a snapshot, for
// its targets to fold (see internal/core/state.go and reshard.go).
type DeltaService interface {
	Service

	// Delta serializes every state change since the last call to Delta or
	// Snapshot (whichever was later) and resets the change tracking. A
	// service with no changes returns an empty (or nil) delta.
	Delta() ([]byte, error)

	// ApplyDelta folds a delta produced by Delta into the current state.
	// Applying, in order, every delta taken since a snapshot onto that
	// snapshot must yield a state identical to the live one.
	ApplyDelta(delta []byte) error
}

// Sharder is an optional extension for services whose operations address
// named items (keys, accounts). A sharded deployment partitions the
// functionality F into N independent LCM instances by item name; the
// client library consults the Sharder before sealing an INVOKE to decide
// which shard's protocol context the operation belongs to. The host never
// needs it — INVOKE ciphertexts are opaque to the (untrusted) server, so
// routing happens where the plaintext exists: at the client.
type Sharder interface {
	// ShardKeys returns the item names op touches. An empty result marks
	// an operation that cannot be pinned to one shard (e.g. a prefix
	// scan); sharded clients must reject it rather than guess.
	ShardKeys(op []byte) []string
}

// Scanner is an optional extension for services with read operations that
// scatter-gather across a sharded deployment: an operation that addresses
// the whole namespace (a prefix or range scan) cannot be pinned to one
// shard, but — because a hash partition makes every shard hold an
// arbitrary subset of the items — it can be executed on every shard
// independently and the per-shard results merged. The client library's
// scatter layer consults the Scanner to recognize such operations and to
// perform the application-specific merge.
//
// The contract for MergeScans is that executing op against the union of
// the shards' states must equal merging the results of executing op
// against each shard's state separately. Prefix scans satisfy it because
// key ownership is a partition: every matching key lives on exactly one
// shard, so the union of the per-shard result sets is the global result
// set (re-sorted, re-limited).
type Scanner interface {
	// IsScan reports whether op is a scatter-gatherable read.
	IsScan(op []byte) bool

	// MergeScans combines the per-shard results of executing op on every
	// shard into the result op would have produced against the unsharded
	// state. parts holds one result per shard, in shard order.
	MergeScans(op []byte, parts [][]byte) ([]byte, error)
}

// Resharder is an optional extension for services whose state can be
// re-partitioned online. A live resharding (growing or shrinking the
// shard count of a deployment) runs inside the trusted contexts: each
// source shard's enclave splits its current state into one fragment per
// new shard (every item goes to ShardIndex(name, newShards)), and each
// new shard's enclave merges the fragments it receives — one from every
// source — into its initial state. The split/merge happens where the
// plaintext exists, so the untrusted host only ever relays sealed
// fragments.
//
// The contract mirrors the Scanner's partition property in reverse:
// for any state S and any n, merging PartitionState(n)'s fragments
// (each restored on an empty instance) across all source shards must
// reproduce exactly the union of the sources' states, and fragment j
// must contain precisely the items with ShardIndex(name, n) == j.
type Resharder interface {
	Service

	// PartitionState splits the current state into n fragments by item
	// name: fragment j holds exactly the items ShardIndex maps to shard j
	// under an n-way partition. Unlike Snapshot it must not disturb the
	// delta/dirty tracking — the caller freezes the instance around it.
	PartitionState(n int) ([][]byte, error)

	// MergeState folds fragments produced by PartitionState on disjoint
	// source states into the current state. Item sets are disjoint by
	// construction (each item lived on exactly one source shard), so the
	// merge is a plain union; an overlap indicates corrupt fragments and
	// must be reported as an error.
	MergeState(fragments [][]byte) error
}

// Freezer is an optional extension for services whose state can be
// frozen cheaply for a background checkpoint (see internal/core). Freeze
// returns a function that serializes the state as of the call, as
// Snapshot would, and is safe to run concurrently with later calls; it
// leaves the delta tracking alone.
type Freezer interface {
	Freeze() func() ([]byte, error)
}

// SnapshotReader is an optional extension for services that can serve
// read-only operations against the last *durable* version of their state
// while newer writes are still in flight. The trusted context uses it to
// execute classified reads concurrently, snapshot-isolated
// from the writer batch: a read observes exactly the state as of the
// sequence number last reported durable, never a write whose persistence
// (and therefore whose reply) is still pending — so a crash can never
// roll back state a read has already observed.
//
// The write path drives the snapshot: once reads are armed, the trusted
// context calls EndBatch after each executed batch (closing that batch's
// undo generation) and AdvanceDurable once the host reports the batch's
// record persisted; no pre-image is needed before the first EndBatch.
// Implementations must make SnapshotRead safe for use concurrent with
// Apply/EndBatch/AdvanceDurable; Keyed does, locking per mutation so
// readers interleave with a long batch instead of convoying behind it.
type SnapshotReader interface {
	Service

	// IsReadOnly reports whether op can never change state — only such
	// operations may execute on the snapshot. The trusted context
	// re-checks this server-side; a misclassified op is rejected, never
	// executed. Such an op's result must depend only on the state:
	// recovery re-executes it with Apply, on the state it ran on, to
	// rebuild its cached reply, and a retry whose rebuilt reply differs
	// halts the context (internal/core/state.go).
	IsReadOnly(op []byte) bool

	// SnapshotRead executes a read-only op against the durable snapshot.
	SnapshotRead(op []byte) ([]byte, error)

	// EndBatch closes the undo generation covering every mutation since
	// the previous EndBatch, tagging it with the sequence number of the
	// batch's last operation.
	EndBatch(seq uint64)

	// AdvanceDurable moves the snapshot forward: every generation tagged
	// <= seq is folded away and subsequent SnapshotReads observe the
	// corresponding state. seq must be a value previously passed to
	// EndBatch (or the recovery point).
	AdvanceDurable(seq uint64)
}

// EpochAdvancer is an optional extension for services that want
// epoch-fenced housekeeping. The trusted context calls AdvanceEpoch —
// inside the enclave, immediately before sealing the epoch's persistence
// record — every time the membership epoch advances, with the new epoch
// number. Epochs are monotone across restarts and rollbacks (they are
// fenced by a trusted monotonic counter), which makes them a safe
// horizon for retention decisions: anything a service prunes "h epochs
// after settling" can never be resurrected by a rolled-back context
// still living in an earlier epoch, because that context halts before
// reusing an epoch number.
//
// State changes made inside AdvanceEpoch are captured by the epoch
// seal's own delta record (or snapshot), so recovery replays them
// deterministically. The bundled bank service (internal/counter) uses
// this to prune settled escrow transfer records.
type EpochAdvancer interface {
	AdvanceEpoch(epoch uint64)
}

// ShardIndex maps an item name onto one of n shards with a stable hash
// (FNV-1a). Every layer — client routing, bench harnesses, tests picking
// shard-local keys — must use this one function so they agree on the
// partition.
func ShardIndex(key string, n int) int {
	if n <= 1 {
		return 0
	}
	// Inline FNV-1a (64-bit): stable across processes, cheap, no alloc.
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// KeyOnShard deterministically finds an item name that ShardIndex maps
// onto the wanted shard, by probing "<tag>-0", "<tag>-1", … — how tests,
// benches and demos steer traffic at a specific shard. It panics on an
// unreachable shard index (the probe loop would otherwise spin forever).
func KeyOnShard(shard, n int, tag string) string {
	if n < 1 || shard < 0 || shard >= n {
		panic(fmt.Sprintf("service: KeyOnShard: shard %d out of range for %d shards", shard, n))
	}
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s-%d", tag, i)
		if ShardIndex(k, n) == shard {
			return k
		}
	}
}

// ShardOf resolves the shard an operation belongs to under an n-way
// partition. Operations that touch no nameable item, or items on
// different shards (a cross-shard transfer), are rejected — the protocol
// executes an operation on exactly one trusted context, so an op must fit
// inside one shard.
func ShardOf(s Sharder, op []byte, n int) (int, error) {
	if n <= 1 {
		return 0, nil
	}
	keys := s.ShardKeys(op)
	if len(keys) == 0 {
		return 0, errors.New("service: operation has no shard key")
	}
	shard := ShardIndex(keys[0], n)
	for _, k := range keys[1:] {
		if other := ShardIndex(k, n); other != shard {
			return 0, fmt.Errorf("service: operation spans shards %d and %d (%q, %q)", shard, other, keys[0], k)
		}
	}
	return shard, nil
}

// Factory creates a fresh, empty Service instance. The enclave calls it
// once per epoch, before restoring any sealed snapshot.
type Factory func() Service
