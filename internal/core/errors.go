// Package core implements the LCM protocol of Sec. 4: the client side
// (Alg. 1), the trusted-execution-context side (Alg. 2) packaged as a
// tee.Program, operation stability (Sec. 4.5), and the extensions of
// Sec. 4.6 — crash-tolerant retries, enclave migration and dynamic group
// membership.
package core

import "errors"

// Client-side detection errors. Each corresponds to a failed assert in
// Alg. 1 or one of the defensive monotonicity checks; once any of them is
// returned the client refuses further operations (fail-aware behaviour).
var (
	// ErrReplyAuth reports a REPLY that failed authenticated decryption:
	// the server tampered with, or fabricated, a message.
	ErrReplyAuth = errors.New("lcm: reply failed authentication")

	// ErrReplyMismatch reports a REPLY whose echoed hash-chain value h'c
	// does not match the client's hc — the assert of Alg. 1. It means
	// the reply does not answer the client's most recent INVOKE.
	ErrReplyMismatch = errors.New("lcm: reply does not match pending invocation (possible rollback or forking attack)")

	// ErrNonMonotonicSeq reports a REPLY carrying a sequence number not
	// greater than the client's last one; sequence numbers returned at
	// one client are strictly increasing (Sec. 3.2.2).
	ErrNonMonotonicSeq = errors.New("lcm: sequence number not strictly increasing")

	// ErrNonMonotonicStable reports a stable sequence number that
	// decreased or overtook the operation sequence number; stable
	// sequence numbers never decrease (Sec. 3.2.2).
	ErrNonMonotonicStable = errors.New("lcm: stable sequence number regressed")

	// ErrViolationDetected is wrapped by every error above; callers can
	// match it to learn "the server misbehaved" without distinguishing
	// the symptom.
	ErrViolationDetected = errors.New("lcm: server misbehaviour detected")

	// ErrPendingOperation reports an Invoke while a previous operation
	// is still outstanding; LCM clients invoke sequentially (Sec. 4.1).
	ErrPendingOperation = errors.New("lcm: an operation is already pending")

	// ErrNoPendingOperation reports a Retry or ProcessReply with no
	// operation outstanding.
	ErrNoPendingOperation = errors.New("lcm: no operation pending")

	// ErrNoPendingRead reports ProcessReadReply with no read outstanding.
	ErrNoPendingRead = errors.New("lcm: no read pending")

	// ErrStaleReadReply reports an authentic read reply answering an
	// abandoned (timed-out, since re-issued) read rather than the
	// outstanding one. It is benign — reads are side-effect free and
	// re-sent under fresh nonces, so a delayed reply to an earlier
	// attempt can legitimately arrive over the multiplexed link. The
	// caller discards the frame and keeps awaiting; the client is NOT
	// poisoned.
	ErrStaleReadReply = errors.New("lcm: reply answers an abandoned read")

	// ErrStaleReadSnapshot reports a read reply describing a snapshot
	// older than the client's last write or last read — the server served
	// a rolled-back or withheld view on the read path.
	ErrStaleReadSnapshot = errors.New("lcm: read snapshot older than the client's context")

	// ErrClientPoisoned reports any use of a client that has already
	// detected a violation.
	ErrClientPoisoned = errors.New("lcm: client halted after detecting server misbehaviour")

	// ErrBeaconStale reports a reply whose beacon sequence number has not
	// advanced within the client's freshness horizon: the instance either
	// stopped committing heartbeat beacons (a cloned enclave hiding from
	// the counter collision) or the host withheld them. Wrapped in
	// ErrViolationDetected like every other client-side detection.
	ErrBeaconStale = errors.New("lcm: beacon stale beyond the freshness horizon (possible cloned or gagged instance)")
)

// Trusted-side errors (returned from enclave calls without halting).
var (
	// ErrNotProvisioned reports an operation on a trusted context that
	// has not completed bootstrapping (Sec. 4.3).
	ErrNotProvisioned = errors.New("lcm: trusted context not provisioned")

	// ErrStateVersion reports a state blob of an unknown version, or from
	// before blobs carried one; recovery halts with it.
	ErrStateVersion = errors.New("lcm: state blob version unknown")

	// ErrRecordVersion reports a delta record of another format version (a
	// record from before the version byte reads as 0); recovery halts.
	ErrRecordVersion = errors.New("lcm: delta record version unknown")

	// ErrNoCheckpoint reports a checkpoint-seal call for a checkpoint a
	// later cut, a fresh blob or a restart superseded.
	ErrNoCheckpoint = errors.New("lcm: no checkpoint pending")

	// ErrAlreadyProvisioned reports a second provisioning attempt.
	ErrAlreadyProvisioned = errors.New("lcm: trusted context already provisioned")

	// ErrAdminAuth reports an administrative message that failed
	// authentication.
	ErrAdminAuth = errors.New("lcm: admin message failed authentication")

	// ErrAdminReplay reports an administrative message with a stale
	// sequence number.
	ErrAdminReplay = errors.New("lcm: admin message replayed or out of order")

	// ErrUnknownClient reports an operation or admin action naming a
	// client outside the current group.
	ErrUnknownClient = errors.New("lcm: unknown client")

	// ErrClientEvicted reports an invocation from a client the group has
	// evicted (or that left voluntarily). It is returned without halting:
	// eviction is a deliberate membership decision, not host misbehaviour,
	// and the definitive cut-off is the kC rotation at the epoch seal —
	// after which the evictee's messages simply fail authentication.
	ErrClientEvicted = errors.New("lcm: client evicted from the group")

	// ErrResharding reports an operation on a trusted context that is
	// frozen mid-reshard: it has joined a reshard generation (prepare)
	// but has not yet exported its state. Clients receiving it should
	// refresh their routing once the reshard completes.
	ErrResharding = errors.New("lcm: trusted context resharding; refresh routing after the reshard completes")

	// ErrReshardedAway reports an operation on a source shard that has
	// exported its state to a new reshard generation and stopped.
	ErrReshardedAway = errors.New("lcm: trusted context resharded away; refresh routing")

	// ErrReshardAttestation reports a reshard target or peer whose quote
	// did not verify.
	ErrReshardAttestation = errors.New("lcm: reshard attestation failed")

	// ErrReadsUnsupported reports callEnableReads on a trusted context
	// whose service does not implement service.SnapshotReader.
	ErrReadsUnsupported = errors.New("lcm: service does not support snapshot reads")

	// ErrReadsNotEnabled reports a read on an instance the host has not
	// armed with callEnableReads.
	ErrReadsNotEnabled = errors.New("lcm: snapshot reads not enabled on this instance")

	// ErrCloneDetected is the reason a trusted context halts when the
	// platform's beacon counter diverges from the tick its sealed chain
	// reserved: another live instance of the same context incremented the
	// counter (a cloning attack — two enclaves serving from one sealed
	// state), or the chain was rolled back behind counter increments it
	// had already confirmed. Either way the sealed history and the
	// counter disagree and the context must stop.
	ErrCloneDetected = errors.New("lcm: beacon counter mismatch: cloned instance or rollback behind the counter")
)
