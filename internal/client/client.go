// Package client wraps the LCM client protocol (core.Client, Alg. 1) with
// a network session: it sends INVOKE frames to the untrusted server,
// matches replies, applies the retry mechanism of Sec. 4.6.1 on timeouts,
// and persists the client state so a crashed client can resume.
//
// There is exactly one session implementation — the unexported session,
// holding one core.Client protocol context per shard, all multiplexed
// over a single connection. The two exported types are views of it:
//
//   - ShardedSession exposes the full surface: per-shard contexts,
//     routing by service key (service.Sharder + service.ShardIndex),
//     scatter-gather scans, cross-shard transfers, reshard adoption.
//   - Session is the thin single-context wrapper — the N=1 case, bound
//     to the one shard Config.Shard names — with the historical
//     shard-free method set.
//
// The shard index travels as a one-byte routing prefix on each frame; it
// is untrusted metadata, since a misrouted INVOKE fails authentication at
// the receiving shard.
//
// Read-only operations can additionally travel the snapshot-read path
// (DoRead): the op is sealed as a READ-INVOKE and executed by the host,
// concurrently with the write path, against the last durable state, with
// the same per-client context verification as a write (see
// internal/core/read.go).
package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"lcm/internal/aead"
	"lcm/internal/core"
	"lcm/internal/hashchain"
	"lcm/internal/service"
	"lcm/internal/transport"
	"lcm/internal/wire"
)

// ErrTimeout reports that an operation's reply did not arrive within the
// configured timeout even after retries. The operation may or may not have
// executed; the session keeps it pending so a later Retry (or a resumed
// session) can learn its outcome safely.
var ErrTimeout = errors.New("client: reply timeout")

// ErrSessionClosed reports use of a closed session.
var ErrSessionClosed = errors.New("client: session closed")

// Config tunes a session.
type Config struct {
	// Timeout bounds the wait for each reply's first byte; 0 means no
	// timeout. Once a reply has begun to arrive it is read whole (only
	// transport.TCPOptions.ReadTimeout bounds the rest).
	Timeout time.Duration
	// Retries is how many times a timed-out operation is re-sent with
	// the retry marker before giving up.
	Retries int
	// Shard is the shard a single-context Session addresses (default 0).
	// Sharded deployments normally use a ShardedSession instead; a plain
	// Session with Shard set talks to exactly one shard — e.g. a
	// per-shard admin connection.
	Shard int
	// Gen is the reshard generation the session's communication keys
	// belong to (0 = as deployed). Sessions produced by AdoptReshard set
	// it automatically; a resumed session whose deployment has resharded
	// since must pass the generation it had adopted.
	Gen uint64
	// FreshnessHorizon arms the beacon-freshness rule on every shard
	// context (core.Client.SetFreshnessHorizon): a reply whose heartbeat-
	// beacon ordinal has not advanced within this duration poisons the
	// context with core.ErrBeaconStale. Set it when the deployment runs
	// with host.Config.BeaconInterval > 0, to comfortably more than the
	// interval (≥ 2–3 intervals plus transport slack); it closes the
	// "gagged clone" branch of the cloning attack, where an instance
	// avoids counter collisions by silently not beaconing. Zero disables
	// the check.
	FreshnessHorizon time.Duration
	// AtLeastOnce adapts the session to a network that may duplicate or
	// locally reorder frames (the swarm harness's chaos links): every
	// INVOKE carries the retry marker from its first transmission, so the
	// trusted context answers a verbatim duplicate of the in-flight
	// operation from its cached reply instead of halting, and the session
	// silently discards byte-identical duplicates of replies it already
	// verified. Execution stays exactly-once and every non-verbatim
	// deviation is still detected; what is given up is treating a
	// duplicate of the *latest* message as an attack. Leave it off on
	// FIFO transports (the paper's model), where duplication is
	// indistinguishable from a replay attack and should halt.
	AtLeastOnce bool
	// HeartbeatInterval arms the churn-era liveness auto-tick: every
	// interval the session seals one heartbeat ChurnMsg per shard context
	// and sends it on a background goroutine, keeping the client's
	// lastSeen epoch fresh inside the enclave so heartbeat-based eviction
	// (host.Config / core.TrustedConfig EvictAfterEpochs) never reaps a
	// connected-but-quiet client. Heartbeats are fire-and-forget — the
	// enclave produces no ack and the host answers with an empty OK frame,
	// which the session's verification paths recognise and discard. Zero
	// disables the tick; Heartbeat remains available for manual ticking.
	// A session with the auto-tick armed must not multiplex raw admin
	// ECalls over its connection (use AdminConn on a dedicated connection
	// instead): admin responses can be legitimately empty, making them
	// indistinguishable from a concurrent heartbeat's empty OK.
	HeartbeatInterval time.Duration
	// Observe, if non-nil, is called after every verified completed
	// operation (including recoveries and per-shard scan parts) — the
	// hook a harness uses to stamp a history into the consistency
	// checker. It runs on the session's calling goroutine.
	Observe func(Observation)
}

// Observation reports one verified completed operation to Config.Observe.
type Observation struct {
	// Shard is the wire shard that executed the operation.
	Shard int
	// Gen is the session's reshard generation.
	Gen uint64
	// Op is the service operation that was executed.
	Op []byte
	// Result is the verified protocol result (value, seq, stable).
	Result *core.Result
	// Chain is the client's hash-chain value after this operation.
	Chain hashchain.Value
}

// link is one connection shared by the session types. Replies are read on
// the calling goroutine: the session is sequential (Sec. 4.1), so the
// caller waiting for a reply is the only reader.
type link struct {
	conn transport.TimedConn

	// sendMu serialises writers: the session's calling goroutine and the
	// background heartbeat tick share the connection's send side.
	sendMu sync.Mutex

	closeOnce sync.Once
	closed    chan struct{}
}

func newLink(conn transport.Conn) *link {
	return &link{conn: transport.Timed(conn), closed: make(chan struct{})}
}

// send transmits one frame, serialised against concurrent senders (the
// heartbeat auto-tick shares the connection with the calling goroutine).
func (l *link) send(frame []byte) error {
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	return l.conn.Send(frame)
}

// await receives the next frame. timeout bounds the wait for its first
// byte; when it expires the stream is intact and await reports ErrTimeout.
func (l *link) await(timeout time.Duration) ([]byte, error) {
	frame, err := l.conn.RecvWithin(timeout)
	switch {
	case err == nil:
		return frame, nil
	case errors.Is(err, transport.ErrDeadline) && !errors.Is(err, io.ErrUnexpectedEOF):
		return nil, ErrTimeout
	}
	select {
	case <-l.closed:
		return nil, ErrSessionClosed
	default:
		return nil, fmt.Errorf("client: recv: %w", err)
	}
}

func (l *link) close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return l.conn.Close()
}

// ---- Unified session core ----

// session is the single underlying implementation behind Session and
// ShardedSession: one core.Client protocol context per shard — each shard
// an independent LCM instance with its own hash chain and communication
// key — multiplexed over one connection. It is sequential: one goroutine
// at a time (LCM clients invoke sequentially, Sec. 4.1).
type session struct {
	protos  []*core.Client
	kcs     []aead.Key // per-shard communication keys (for handoff checks)
	sharder service.Sharder
	link    *link
	cfg     Config

	// Verbatim-duplicate filter for AtLeastOnce links: a ring of recently
	// accepted reply/multi-response payloads. A duplicated or re-answered
	// frame is always byte-identical to one of these (the enclave caches
	// and re-sends the exact ciphertext), so anything else that fails
	// verification is still a detected attack. The ring must span more
	// than the single latest reply: on a slow link every spurious retry
	// of a merely-delayed reply mints another copy, and a copy can arrive
	// several operations later.
	recentReplies [][]byte
	recentNext    int
}

// recentReplyWindow bounds the duplicate-filter ring. Stale copies per
// operation are bounded by Config.Retries+1, and copies older than a few
// operations have long drained from any real link.
const recentReplyWindow = 64

func newSessionCore(conn transport.Conn, protos []*core.Client, kcs []aead.Key, sharder service.Sharder, cfg Config) session {
	if cfg.FreshnessHorizon > 0 {
		for _, p := range protos {
			p.SetFreshnessHorizon(cfg.FreshnessHorizon)
		}
	}
	return session{
		protos:  protos,
		kcs:     append([]aead.Key(nil), kcs...),
		sharder: sharder,
		link:    newLink(conn),
		cfg:     cfg,
	}
}

// staleDuplicate reports whether payload is a byte-identical duplicate of
// a reply this session already verified and consumed — benign leftovers
// of duplicated or re-answered frames on an at-least-once link.
func (s *session) staleDuplicate(payload []byte) bool {
	if !s.cfg.AtLeastOnce {
		return false
	}
	for _, recent := range s.recentReplies {
		if bytes.Equal(payload, recent) {
			return true
		}
	}
	return false
}

// rememberReply records a verified payload in the duplicate-filter ring.
func (s *session) rememberReply(payload []byte) {
	if !s.cfg.AtLeastOnce {
		return
	}
	if len(s.recentReplies) < recentReplyWindow {
		s.recentReplies = append(s.recentReplies, payload)
		return
	}
	s.recentReplies[s.recentNext] = payload
	s.recentNext = (s.recentNext + 1) % recentReplyWindow
}

// invokeOn buffers op on context i and seals it according to the
// session's delivery model.
func (s *session) invokeOn(i int, op []byte) ([]byte, error) {
	if s.cfg.AtLeastOnce {
		return s.protos[i].InvokeRetryable(op)
	}
	return s.protos[i].Invoke(op)
}

// observe reports a verified completed operation to Config.Observe.
func (s *session) observe(i int, op []byte, res *core.Result) {
	if s.cfg.Observe == nil {
		return
	}
	s.cfg.Observe(Observation{
		Shard:  s.wireShard(i),
		Gen:    s.cfg.Gen,
		Op:     op,
		Result: res,
		Chain:  s.protos[i].Chain(),
	})
}

// wireShard maps a protocol-context index onto the wire shard it
// addresses: context i of a multi-context session serves shard i, while a
// single-context session addresses Config.Shard with its only context.
func (s *session) wireShard(i int) int {
	if len(s.protos) == 1 {
		return s.cfg.Shard
	}
	return i
}

func (s *session) checkIndex(i int) error {
	if i < 0 || i >= len(s.protos) {
		return fmt.Errorf("client: shard %d out of range (%d shards)", i, len(s.protos))
	}
	return nil
}

// doOn invokes op on the context with index i and runs the Sec. 4.6.1
// timeout/retry loop for its reply.
func (s *session) doOn(i int, op []byte) (*core.Result, error) {
	if err := s.checkIndex(i); err != nil {
		return nil, err
	}
	invoke, err := s.invokeOn(i, op)
	if err != nil {
		return nil, err
	}
	return s.roundTrip(i, op, invoke)
}

// recoverOn completes context i's pending operation left over from a
// crash or timeout by re-sending it with the retry marker.
func (s *session) recoverOn(i int) (*core.Result, error) {
	if err := s.checkIndex(i); err != nil {
		return nil, err
	}
	op := s.protos[i].PendingOp()
	invoke, err := s.protos[i].RetryMessage()
	if err != nil {
		return nil, err
	}
	return s.roundTrip(i, op, invoke)
}

// awaitReply awaits the next reply payload, skipping heartbeat acks (a
// host's empty OK; sealed replies are never empty) and verbatim duplicates
// of replies already verified (the benign residue of duplicated frames or
// re-answered retries on an at-least-once link). On a timeout it sends the
// frame resend builds, up to Config.Retries times per request; *attempts
// counts them. A nil resend never retries.
func (s *session) awaitReply(attempts *int, resend func() ([]byte, error)) ([]byte, error) {
	for {
		frame, err := s.link.await(s.cfg.Timeout)
		if errors.Is(err, ErrTimeout) && resend != nil && *attempts < s.cfg.Retries {
			*attempts++
			retry, err := resend()
			if err != nil {
				return nil, err
			}
			if err := s.link.send(retry); err != nil {
				return nil, fmt.Errorf("client: send retry: %w", err)
			}
			continue
		}
		if err != nil {
			return nil, err
		}
		// A server error frame (e.g. a halted enclave) surfaces here.
		reply, err := wire.DecodeResponse(frame)
		if err != nil || (len(reply) > 0 && !s.staleDuplicate(reply)) {
			return reply, err
		}
	}
}

// roundTrip sends one INVOKE for context i and runs the timeout/retry
// loop against its protocol context. op is the service operation the
// INVOKE carries, reported to the observer on success.
func (s *session) roundTrip(i int, op []byte, invoke []byte) (*core.Result, error) {
	proto, shard := s.protos[i], s.wireShard(i)
	if err := s.link.send(wire.EncodeShardFrame(wire.FrameInvoke, shard, uint32(s.cfg.Gen), invoke)); err != nil {
		return nil, fmt.Errorf("client: send invoke: %w", err)
	}
	attempts := 0
	reply, err := s.awaitReply(&attempts, func() ([]byte, error) {
		retry, err := proto.RetryMessage()
		return wire.EncodeShardFrame(wire.FrameInvoke, shard, uint32(s.cfg.Gen), retry), err
	})
	if err != nil {
		return nil, err
	}
	res, err := proto.ProcessReply(reply)
	if err != nil {
		return nil, err
	}
	s.rememberReply(reply)
	s.observe(i, op, res)
	return res, nil
}

// readOn executes a read-only op on context i over the snapshot-read path
// (wire.FrameReadInvoke, served outside the host's write loop). Reads are
// side-effect free, so a timed-out read is simply abandoned and re-issued
// under a fresh nonce rather than retried with a marker.
func (s *session) readOn(i int, op []byte) (*core.Result, error) {
	if err := s.checkIndex(i); err != nil {
		return nil, err
	}
	proto, shard := s.protos[i], s.wireShard(i)
	readFrame := func() ([]byte, error) {
		invoke, err := proto.ReadInvoke(op)
		return wire.EncodeShardFrame(wire.FrameReadInvoke, shard, uint32(s.cfg.Gen), invoke), err
	}
	frame, err := readFrame()
	if err != nil {
		return nil, err
	}
	if err := s.link.send(frame); err != nil {
		return nil, fmt.Errorf("client: send read invoke: %w", err)
	}
	attempts := 0
	for {
		reply, err := s.awaitReply(&attempts, readFrame)
		if err != nil {
			return nil, err
		}
		res, err := proto.ProcessReadReply(reply)
		if errors.Is(err, core.ErrStaleReadReply) {
			// Delayed reply to an abandoned (timed-out, re-issued) attempt
			// of this read: benign on a multiplexed link. Drop the frame
			// and keep awaiting the current attempt's reply.
			continue
		}
		return res, err
	}
}

// ecallOn forwards a raw enclave call to the given wire shard.
func (s *session) ecallOn(shard int, payload []byte) ([]byte, error) {
	return ecall(s.link, s.cfg, shard, payload)
}

func ecall(l *link, cfg Config, shard int, payload []byte) ([]byte, error) {
	if err := l.send(wire.EncodeShardFrame(wire.FrameECall, shard, uint32(cfg.Gen), payload)); err != nil {
		return nil, fmt.Errorf("client: send ecall: %w", err)
	}
	frame, err := l.await(cfg.Timeout)
	if err != nil {
		return nil, err
	}
	return wire.DecodeResponse(frame)
}

// DeploymentStatus fetches the host's aggregated operational status: one
// core.Status per shard plus the host-side group-commit counters.
func (s *session) DeploymentStatus() (*core.DeploymentStatus, error) {
	if err := s.link.send(wire.EncodeFrame(wire.FrameStatus, nil)); err != nil {
		return nil, fmt.Errorf("client: send status: %w", err)
	}
	var attempts int
	resp, err := s.awaitReply(&attempts, nil)
	if err != nil {
		return nil, err
	}
	return core.DecodeDeploymentStatus(resp)
}

// ---- Churn: join, leave, heartbeat ----

// churnOn seals one membership message for context i, sends it as a
// FrameChurn, and (for joins and leaves) verifies the sealed ack. The ack
// authenticates under kC and echoes the kind and client id, so a
// malicious host can suppress a churn request (plain unavailability) but
// never forge its acceptance.
func (s *session) churnOn(i int, kind byte) (*core.ChurnAck, error) {
	if err := s.checkIndex(i); err != nil {
		return nil, err
	}
	id, shard := s.protos[i].ID(), s.wireShard(i)
	// Joins and leaves are idempotent at the enclave, so a timed-out
	// request is simply re-sealed under a fresh nonce and re-sent.
	churnFrame := func() ([]byte, error) {
		msg, err := core.SealChurnMsg(s.kcs[i], kind, id)
		return wire.EncodeShardFrame(wire.FrameChurn, shard, uint32(s.cfg.Gen), msg), err
	}
	frame, err := churnFrame()
	if err != nil {
		return nil, err
	}
	if err := s.link.send(frame); err != nil {
		return nil, fmt.Errorf("client: send churn: %w", err)
	}
	if kind == core.ChurnHeartbeat {
		// Fire-and-forget: the enclave produces no ack and the host's
		// empty OK is discarded by whichever await drains it next.
		return nil, nil
	}
	attempts := 0
	reply, err := s.awaitReply(&attempts, churnFrame)
	if err != nil {
		return nil, err
	}
	ack, err := core.OpenChurnAck(s.kcs[i], reply, kind, id)
	if err != nil {
		return nil, err
	}
	if !ack.OK {
		return ack, fmt.Errorf("client: churn request refused by shard %d", shard)
	}
	return ack, nil
}

// heartbeatAll seals and sends one heartbeat per shard context. Errors
// are best-effort: a failed send surfaces, but no reply is awaited.
func (s *session) heartbeatAll() error {
	for i := range s.protos {
		if _, err := s.churnOn(i, core.ChurnHeartbeat); err != nil {
			return err
		}
	}
	return nil
}

// startHeartbeats launches the Config.HeartbeatInterval auto-tick. Called
// once from the session constructors, after the struct has its final
// address; the goroutine stops when the link closes.
func (s *session) startHeartbeats() {
	if s.cfg.HeartbeatInterval <= 0 {
		return
	}
	go func() {
		ticker := time.NewTicker(s.cfg.HeartbeatInterval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
			case <-s.link.closed:
				return
			}
			_ = s.heartbeatAll()
		}
	}()
}

// Close shuts the session down: it closes the connection, which unblocks
// a pending operation with ErrSessionClosed, and stops the heartbeat tick.
func (s *session) Close() error { return s.link.close() }

// ---- Single-context view ----

// Session is a connected LCM client bound to one protocol context — the
// single-shard view of the unified session (it and ShardedSession share
// one implementation). It is safe for use by one goroutine at a time.
type Session struct {
	session
}

// New creates a session for a fresh client.
//
// Deprecated-ish: New remains fully supported as the single-shard
// convenience constructor; new code talking to sharded deployments should
// use NewSharded, of which this is the one-context special case.
func New(conn transport.Conn, id uint32, kc aead.Key, cfg Config) *Session {
	return newSession(conn, core.NewClient(id, kc), kc, cfg)
}

// Resume creates a session from persisted client state (crash recovery).
// If the state holds a pending operation, the first Do-equivalent step is
// to call Recover, which retries it.
//
// Deprecated-ish: like New, Resume remains supported as the one-context
// special case of ResumeSharded.
func Resume(conn transport.Conn, state *core.ClientState, kc aead.Key, cfg Config) *Session {
	return newSession(conn, core.ResumeClient(state, kc), kc, cfg)
}

func newSession(conn transport.Conn, proto *core.Client, kc aead.Key, cfg Config) *Session {
	s := &Session{session: newSessionCore(conn, []*core.Client{proto}, []aead.Key{kc}, nil, cfg)}
	s.session.startHeartbeats()
	return s
}

// ID returns the client identifier.
func (s *Session) ID() uint32 { return s.protos[0].ID() }

// LastSeq returns the sequence number of the last completed operation.
func (s *Session) LastSeq() uint64 { return s.protos[0].LastSeq() }

// LastStable returns the latest majority-stable sequence number known.
func (s *Session) LastStable() uint64 { return s.protos[0].LastStable() }

// IsStable reports whether the operation with the given sequence number is
// known to be majority-stable.
func (s *Session) IsStable(seq uint64) bool { return s.protos[0].IsStable(seq) }

// State snapshots the persistent client state for stable storage.
func (s *Session) State() *core.ClientState { return s.protos[0].State() }

// Err returns the violation detected by this client, if any.
func (s *Session) Err() error { return s.protos[0].Err() }

// Do invokes one operation and waits for its verified result.
func (s *Session) Do(op []byte) (*core.Result, error) { return s.doOn(0, op) }

// DoRead executes a read-only operation over the snapshot-read path: it
// runs against the last durable state, concurrently with the host's write
// path and fully verified against this client's context, without entering
// the write pipeline. Requires host.Config.SnapshotReads; the result's Seq is
// the snapshot's sequence number (≥ this client's last write).
func (s *Session) DoRead(op []byte) (*core.Result, error) { return s.readOn(0, op) }

// Recover completes a pending operation left over from a crash or
// timeout by re-sending it with the retry marker. It fails with
// core.ErrNoPendingOperation when nothing is pending.
func (s *Session) Recover() (*core.Result, error) { return s.recoverOn(0) }

// Join registers this client in the shard's group through the churn path:
// the enclave upserts its V entry, persists the change, and answers with
// a sealed ack carrying the membership epoch and registered-group size.
// Idempotent — joining while already a member succeeds. The client must
// already hold the group's current kC (from the admin, out of band).
func (s *Session) Join() (*core.ChurnAck, error) { return s.churnOn(0, core.ChurnJoin) }

// Leave retires this client from the group voluntarily: its V entry is
// tombstoned without a kC rotation. The last member cannot leave.
func (s *Session) Leave() (*core.ChurnAck, error) { return s.churnOn(0, core.ChurnLeave) }

// Heartbeat sends one fire-and-forget liveness tick, refreshing this
// client's lastSeen epoch inside the enclave so heartbeat-based eviction
// never reaps it while connected. With Config.HeartbeatInterval set the
// session ticks automatically and calling this is unnecessary.
func (s *Session) Heartbeat() error { return s.heartbeatAll() }

// ECall forwards a raw enclave call through this connection — the path a
// remote admin uses for attestation, provisioning, membership and
// migration. The call is synchronous; do not interleave it with Do.
func (s *Session) ECall(payload []byte) ([]byte, error) {
	return s.ecallOn(s.cfg.Shard, payload)
}

// AdminConn adapts a transport connection into a core.CallFunc for admins
// operating over the network against the given shard.
func AdminConn(conn transport.Conn) (core.CallFunc, func() error) {
	return AdminConnShard(conn, 0)
}

// AdminConnShard is AdminConn addressed at one shard of a sharded
// deployment.
func AdminConnShard(conn transport.Conn, shard int) (core.CallFunc, func() error) {
	l := newLink(conn)
	cfg := Config{Shard: shard}
	call := func(payload []byte) ([]byte, error) {
		return ecall(l, cfg, shard, payload)
	}
	return call, l.close
}

// ---- Sharded view ----

// ShardedSession is a connected LCM client of a sharded deployment — the
// full-surface view of the unified session: one core.Client protocol
// context per shard, all multiplexed over a single connection, operations
// routed to the shard their service key hashes to. Like Session (with
// which it shares its implementation), it is sequential: one goroutine at
// a time.
type ShardedSession struct {
	session
}

// NewSharded creates a sharded session for a fresh client. kcs holds one
// communication key per shard (each shard's admin provisions its own);
// the shard count is len(kcs). sharder maps operations to service keys.
func NewSharded(conn transport.Conn, id uint32, kcs []aead.Key, sharder service.Sharder, cfg Config) *ShardedSession {
	protos := make([]*core.Client, len(kcs))
	for i, kc := range kcs {
		protos[i] = core.NewClient(id, kc)
	}
	s := &ShardedSession{session: newSessionCore(conn, protos, kcs, sharder, cfg)}
	s.session.startHeartbeats()
	return s
}

// ResumeSharded reconstructs a sharded session from persisted per-shard
// states (crash recovery). states and kcs must be parallel, one entry per
// shard, as produced by States.
func ResumeSharded(conn transport.Conn, states []*core.ClientState, kcs []aead.Key, sharder service.Sharder, cfg Config) (*ShardedSession, error) {
	if len(states) != len(kcs) {
		return nil, fmt.Errorf("client: %d states for %d shard keys", len(states), len(kcs))
	}
	protos := make([]*core.Client, len(kcs))
	for i := range kcs {
		protos[i] = core.ResumeClient(states[i], kcs[i])
	}
	s := &ShardedSession{session: newSessionCore(conn, protos, kcs, sharder, cfg)}
	s.session.startHeartbeats()
	return s, nil
}

// Shards returns the number of shards this session spans.
func (s *ShardedSession) Shards() int { return len(s.protos) }

// Gen returns the reshard generation this session's keys belong to.
func (s *ShardedSession) Gen() uint64 { return s.cfg.Gen }

// ID returns the client identifier (the same in every shard's group).
func (s *ShardedSession) ID() uint32 { return s.protos[0].ID() }

// ShardFor resolves the shard an operation routes to.
func (s *ShardedSession) ShardFor(op []byte) (int, error) {
	return service.ShardOf(s.sharder, op, len(s.protos))
}

// Do invokes one operation on the shard its service key hashes to and
// waits for the verified result.
func (s *ShardedSession) Do(op []byte) (*core.Result, error) {
	shard, err := s.ShardFor(op)
	if err != nil {
		return nil, err
	}
	return s.doOn(shard, op)
}

// DoOn invokes an operation on an explicit shard — for callers that have
// already resolved the routing (or tests steering traffic).
func (s *ShardedSession) DoOn(shard int, op []byte) (*core.Result, error) {
	return s.doOn(shard, op)
}

// DoRead executes a read-only operation over the snapshot-read path on
// the shard its service key hashes to (see Session.DoRead).
func (s *ShardedSession) DoRead(op []byte) (*core.Result, error) {
	shard, err := s.ShardFor(op)
	if err != nil {
		return nil, err
	}
	return s.readOn(shard, op)
}

// DoReadOn is DoRead on an explicit shard.
func (s *ShardedSession) DoReadOn(shard int, op []byte) (*core.Result, error) {
	return s.readOn(shard, op)
}

// HasPending reports whether an operation on the given shard awaits its
// reply (after an error or timeout).
func (s *ShardedSession) HasPending(shard int) bool {
	return s.protos[shard].HasPending()
}

// Recover completes the given shard's pending operation by re-sending it
// with the retry marker (Sec. 4.6.1).
func (s *ShardedSession) Recover(shard int) (*core.Result, error) {
	return s.recoverOn(shard)
}

// LastSeq returns the sequence number of the last completed operation on
// the given shard.
func (s *ShardedSession) LastSeq(shard int) uint64 { return s.protos[shard].LastSeq() }

// State snapshots one shard's persistent client state.
func (s *ShardedSession) State(shard int) *core.ClientState { return s.protos[shard].State() }

// States snapshots every shard's persistent client state, in shard order
// (the input ResumeSharded expects).
func (s *ShardedSession) States() []*core.ClientState {
	out := make([]*core.ClientState, len(s.protos))
	for i, p := range s.protos {
		out[i] = p.State()
	}
	return out
}

// Err returns the first violation any shard's context detected, if any.
func (s *ShardedSession) Err() error {
	for shard, p := range s.protos {
		if err := p.Err(); err != nil {
			return fmt.Errorf("shard %d: %w", shard, err)
		}
	}
	return nil
}

// ECall forwards a raw enclave call to one shard's trusted context.
func (s *ShardedSession) ECall(shard int, payload []byte) ([]byte, error) {
	return s.ecallOn(shard, payload)
}

// Join registers this client in every shard's group through the churn
// path (see Session.Join). It returns the per-shard acks in shard order.
func (s *ShardedSession) Join() ([]*core.ChurnAck, error) {
	acks := make([]*core.ChurnAck, len(s.protos))
	for i := range s.protos {
		ack, err := s.churnOn(i, core.ChurnJoin)
		if err != nil {
			return acks, fmt.Errorf("shard %d: %w", s.wireShard(i), err)
		}
		acks[i] = ack
	}
	return acks, nil
}

// Leave retires this client from every shard's group (see Session.Leave).
func (s *ShardedSession) Leave() ([]*core.ChurnAck, error) {
	acks := make([]*core.ChurnAck, len(s.protos))
	for i := range s.protos {
		ack, err := s.churnOn(i, core.ChurnLeave)
		if err != nil {
			return acks, fmt.Errorf("shard %d: %w", s.wireShard(i), err)
		}
		acks[i] = ack
	}
	return acks, nil
}

// Heartbeat sends one liveness tick to every shard (see
// Session.Heartbeat).
func (s *ShardedSession) Heartbeat() error { return s.heartbeatAll() }
