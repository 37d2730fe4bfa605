// Package lcm is a from-scratch Go implementation of Lightweight
// Collective Memory (Brandenburger, Cachin, Lorenz, Kapitza — "Rollback
// and Forking Detection for Trusted Execution Environments using
// Lightweight Collective Memory", DSN 2017), together with every substrate
// the paper depends on: a simulated trusted execution environment standing
// in for Intel SGX, an enclave-hosted key-value store, the untrusted host
// with request batching, the evaluation's baselines, a YCSB-style workload
// generator, and a fork-linearizability checker.
//
// # What LCM gives you
//
// A group of mutually trusting clients runs a stateful service inside a
// trusted execution context T on a potentially malicious server. The TEE
// protects execution integrity, but T's memory is volatile and its
// persistent state lives on the server's (untrusted) storage — so the
// server can restart T from an old state (a rollback attack) or run
// several instances and partition clients between them (a forking
// attack). LCM makes these attacks detectable without trusted hardware
// counters: T condenses its operation history into a hash chain and each
// client carries the chain value of its own last operation; the protocol
// guarantees fork-linearizability and tells clients when operations are
// stable among a majority of the group.
//
// # Package map
//
// This root package re-exports the user-facing API. The implementation
// lives under internal/:
//
//   - internal/core — the LCM protocol (Alg. 1 client, Alg. 2 trusted
//     context, stability, retries, reshard and migration, membership)
//   - internal/tee — the TEE simulator (enclaves, sealing, attestation,
//     EPC paging model)
//   - internal/host — the untrusted server (batching, storage, and the
//     rollback/forking/replay attacks for testing)
//   - internal/client — the client session (timeouts, retries, resume)
//   - internal/kvs, internal/counter — services (the functionality F)
//   - internal/baseline — the evaluation's comparison systems
//   - internal/benchrun — regenerates every figure of the paper
//   - internal/consistency — fork-linearizability checker
//
// See examples/quickstart for an end-to-end walkthrough,
// docs/ARCHITECTURE.md for the formats and protocols, and README.md
// ("Evaluation") for the experiment index.
package lcm

import (
	"lcm/internal/aead"
	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/host"
	"lcm/internal/kvs"
	"lcm/internal/service"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
)

// Re-exported types: the minimal surface a deployment touches. Aliases
// keep the documented implementation as the single source of truth.
type (
	// Key is a 128-bit AES key (kC, kP and sealing keys).
	Key = aead.Key

	// Platform is a simulated TEE-capable machine.
	Platform = tee.Platform

	// AttestationService verifies enclave quotes (the EPID stand-in).
	AttestationService = tee.AttestationService

	// TrustedConfig configures the LCM trusted context over a service.
	TrustedConfig = core.TrustedConfig

	// Admin bootstraps and administers a trusted context (Sec. 4.3,
	// 4.6.3).
	Admin = core.Admin

	// Server is the untrusted host application (Sec. 5.3).
	Server = host.Server

	// ServerConfig assembles a Server.
	ServerConfig = host.Config

	// Session is a connected LCM client (Alg. 1 plus networking). It is
	// the single-shard view of the unified session implementation it
	// shares with ShardedSession.
	Session = client.Session

	// SessionConfig tunes timeouts and retries.
	SessionConfig = client.Config

	// ClientState is the crash-recoverable client state.
	ClientState = core.ClientState

	// Status is a trusted context's externally visible state.
	Status = core.Status

	// ShardedSession is a client of a sharded deployment: one protocol
	// context per shard, routed by service-key hash.
	ShardedSession = client.ShardedSession

	// Sharder maps operations to the service keys they touch; services
	// implement it to make their keyspace partitionable.
	Sharder = service.Sharder
)

// Detection errors, re-exported for matching with errors.Is.
var (
	// ErrViolationDetected wraps every client-side detection of server
	// misbehaviour (rollback, forking, replay, tampering).
	ErrViolationDetected = core.ErrViolationDetected

	// ErrEnclaveHalted reports that the trusted context detected a
	// violation and stopped permanently.
	ErrEnclaveHalted = tee.ErrEnclaveHalted

	// ErrCloneDetected reports that a trusted context's heartbeat beacon
	// collided with a concurrent writer on the platform's monotonic
	// counter — a second live instance (cloning attack) — and halted.
	// Match it against the halted enclave's error chain with errors.Is.
	ErrCloneDetected = core.ErrCloneDetected

	// ErrBeaconStale is the client-side complement: with
	// SessionConfig.FreshnessHorizon armed, replies whose beacon ordinal
	// stops advancing poison the client (the "gagged clone" branch).
	ErrBeaconStale = core.ErrBeaconStale

	// ErrClientEvicted reports an invoke from a client that heartbeat-based
	// eviction removed from the group. It does not halt the enclave; the
	// definitive cut-off is the kC rotation at the next epoch seal.
	ErrClientEvicted = core.ErrClientEvicted
)

// NewPlatform creates a simulated TEE platform.
func NewPlatform(id string, opts ...tee.PlatformOption) (*Platform, error) {
	return tee.NewPlatform(id, opts...)
}

// NewAttestationService creates an empty attestation registry.
func NewAttestationService() *AttestationService {
	return tee.NewAttestationService()
}

// NewKVStoreFactory returns the enclave key-value store of Sec. 5.3 as a
// service factory for TrustedConfig.
func NewKVStoreFactory() service.Factory { return kvs.Factory() }

// NewTrustedFactory wraps a service with the LCM protocol for hosting in
// an enclave.
func NewTrustedFactory(cfg TrustedConfig) tee.ProgramFactory {
	return core.NewTrustedFactory(cfg)
}

// NewServer starts the untrusted host application.
func NewServer(cfg ServerConfig) (*Server, error) { return host.New(cfg) }

// NewAdmin creates the special client that bootstraps a trusted context.
func NewAdmin(att *AttestationService, programIdentity string) *Admin {
	return core.NewAdmin(att, programIdentity)
}

// ProgramIdentity names the LCM program over a service for attestation.
func ProgramIdentity(serviceName string) string {
	return core.ProgramIdentity(serviceName)
}

// NewMemStore returns in-memory stable storage (tests, examples).
func NewMemStore() *stablestore.MemStore { return stablestore.NewMemStore() }

// ListenTCP and DialTCP expose the framed TCP transport.
func ListenTCP(addr string) (transport.Listener, error) { return transport.ListenTCP(addr) }

// DialTCP connects to a framed TCP endpoint.
func DialTCP(addr string) (transport.Conn, error) { return transport.DialTCP(addr) }

// NewInmemNetwork returns an in-process network for tests and examples.
func NewInmemNetwork() *transport.InmemNetwork { return transport.NewInmemNetwork() }

// NewSession connects a fresh LCM client.
func NewSession(conn transport.Conn, id uint32, kc Key, cfg SessionConfig) *Session {
	return client.New(conn, id, kc, cfg)
}

// ResumeSession reconnects a client from persisted state.
func ResumeSession(conn transport.Conn, st *ClientState, kc Key, cfg SessionConfig) *Session {
	return client.Resume(conn, st, kc, cfg)
}

// NewShardedSession connects a fresh client to a sharded deployment: one
// communication key per shard, operations routed by the sharder.
func NewShardedSession(conn transport.Conn, id uint32, kcs []Key, sharder Sharder, cfg SessionConfig) *ShardedSession {
	return client.NewSharded(conn, id, kcs, sharder, cfg)
}

// ResumeShardedSession reconnects a sharded client from its persisted
// per-shard states.
func ResumeShardedSession(conn transport.Conn, states []*ClientState, kcs []Key, sharder Sharder, cfg SessionConfig) (*ShardedSession, error) {
	return client.ResumeSharded(conn, states, kcs, sharder, cfg)
}

// QueryStatus fetches a trusted context's status through any call path.
func QueryStatus(call core.CallFunc) (*Status, error) { return core.QueryStatus(call) }

// KVS operation codecs for use with Session.Do and
// ShardedSession.Do/Scan.
var (
	// Get encodes a read of key.
	Get = kvs.Get
	// Put encodes a write.
	Put = kvs.Put
	// Del encodes a delete.
	Del = kvs.Del
	// DecodeKVResult parses a kvs operation result.
	DecodeKVResult = kvs.DecodeResult
)
