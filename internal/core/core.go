// Package core implements the LCM protocol itself — the heart of the
// paper: the Alg. 1 client (invoke, reply verification, retries of
// Sec. 4.6.1), the Alg. 2 trusted context (execution, hash chain, the
// client context map V, majority stability of Sec. 4.2.3), the admin
// operations (bootstrap via remote attestation, membership changes and
// recovery, Sec. 4.3/4.6; a migration is a reshard, see reshard.go), and
// the sealed persistence of the trusted state (full snapshots plus the
// hash-chained delta-record log; state.go documents the formats and
// recovery rules).
//
// Invariants the rest of the system leans on:
//
//   - Every client context is small and constant-size (tc, ts, hc plus
//     a possible pending operation) and recoverable from stable storage.
//   - The trusted context never releases a REPLY whose effects are not
//     covered by a persistence action handed to the host in the same
//     batch result; the host must complete that action before
//     forwarding the reply (crash tolerance).
//   - Any verification failure — on the client or in the enclave — is
//     sticky: the context is poisoned (client) or halted (enclave) and
//     refuses further use. Detection is permanent evidence, never
//     retried away.
//
// One instance of this package's trusted program protects exactly one
// functionality instance; sharded deployments (internal/host) run
// several fully independent instances side by side.
package core
