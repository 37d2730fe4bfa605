// Client-side adoption of a live reshard (see internal/core/reshard.go
// for the protocol). The deployment's shard count is untrusted routing
// metadata, so a client must never simply believe "we resharded, here is
// your new layout" — that is exactly the window a forking host would use
// to hand different clients different worlds while destroying the
// per-shard contexts that would have exposed it. Instead the client
// verifies, per old shard, a handoff sealed under that shard's old
// communication key: the source enclave's final view of this client's
// context must match the context the client itself holds. Only then are
// the new shards' keys (carried inside the lead's handoff, equally
// opaque to the host) adopted and fresh per-shard contexts started.
package client

import (
	"errors"
	"fmt"
	"strings"

	"lcm/internal/aead"
	"lcm/internal/core"
	"lcm/internal/transport"
	"lcm/internal/wire"
)

// NeedsReshardRefresh reports whether an operation error indicates the
// deployment resharded underneath this session (the host refusing a
// stale-generation connection, or a frozen/retired source enclave). The
// session's pending state is preserved; fetch the reshard info, adopt
// the new generation and resolve the pending operation from the report.
//
// Note that a refusal can also come from a reshard that is still in
// flight — or that the host later ABORTS (the old generation resumes
// serving). Refresh then keeps returning ErrNoReshard; see its doc for
// the resolution loop.
func NeedsReshardRefresh(err error) bool {
	return err != nil && strings.Contains(err.Error(), "reshard")
}

// ErrNoReshard reports that the host has no completed reshard bundle
// for the generation this session would adopt next. Transiently that
// means a reshard is mid-flight (retry shortly); persistently it means
// the reshard was aborted and the old generation resumed — Recover any
// pending operation on this same session and carry on.
var ErrNoReshard = errors.New("client: no completed reshard to adopt")

// FetchReshardInfo retrieves the reshard handoff bundle for the
// generation following this session's from the host (the host retains
// every generation's bundle, so a session that slept through several
// reshards walks them one Refresh at a time). The result is untrusted
// until VerifyReshard (or AdoptReshard) has checked the handoffs; it
// works on connections the host already considers stale.
func (s *ShardedSession) FetchReshardInfo() (*core.ReshardInfo, error) {
	w := wire.NewWriter(8)
	w.U64(s.cfg.Gen + 1)
	if err := s.link.send(wire.EncodeFrame(wire.FrameReshardInfo, w.Bytes())); err != nil {
		return nil, fmt.Errorf("client: send reshard info request: %w", err)
	}
	frame, err := s.link.await(s.cfg.Timeout)
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeResponse(frame)
	if err != nil {
		if strings.Contains(err.Error(), "no reshard info") {
			return nil, fmt.Errorf("%w: %v", ErrNoReshard, err)
		}
		return nil, err
	}
	return core.DecodeReshardInfo(resp)
}

// ReshardPending describes the fate of an operation that was pending on
// an old shard when the deployment resharded.
type ReshardPending struct {
	// OldShard is the source shard the operation was pending on.
	OldShard int
	// Op is the buffered operation.
	Op []byte
	// Executed reports whether the source shard executed the operation
	// before freezing. Its effects are part of the migrated state and
	// the operation must NOT be re-issued blindly. When false the
	// operation never executed; re-issue it on the new session to
	// complete it.
	Executed bool
	// Result is the executed operation's recovered result: the handoff
	// carries the source's cached reply ciphertext (Sec. 4.6.1), which
	// VerifyReshard feeds through the old shard's protocol context
	// exactly as a retry's resent reply. Nil when Executed is false.
	Result *core.Result
}

// VerifyReshard authenticates a reshard against this session's state:
// every old shard's handoff must open under that shard's communication
// key, agree on the generation and layout, and pin a V entry for this
// client that matches the context the client holds — the Alg. 2 context
// check, executed client-side at the generation boundary. It returns
// the new generation's communication keys (from the lead's handoff) and
// the resolution of any pending operations.
//
// Recovering an executed pending operation consumes its cached reply on
// the old shard's context (advancing it to the handoff's pinned state),
// so the Executed entry — and its Result — is reported by the first
// verification only; a repeated VerifyReshard of the same info sees a
// clean context and an empty report for that shard.
//
// A rollback or fork injected on a source shard during the move makes
// the exported V disagree with this client's context, and the
// verification fails with an error wrapping core.ErrViolationDetected —
// the new generation is refused, not adopted.
func (s *ShardedSession) VerifyReshard(info *core.ReshardInfo) ([]aead.Key, []ReshardPending, error) {
	if info.Gen != s.cfg.Gen+1 {
		return nil, nil, fmt.Errorf("%w: reshard generation %d does not follow this session's %d (replayed or skipped handoff)",
			core.ErrViolationDetected, info.Gen, s.cfg.Gen)
	}
	if info.OldShards != len(s.protos) || len(info.Handoffs) != len(s.protos) {
		return nil, nil, fmt.Errorf("%w: reshard info covers %d old shards (%d handoffs), session spans %d",
			core.ErrViolationDetected, info.OldShards, len(info.Handoffs), len(s.protos))
	}
	if info.NewShards < 1 {
		return nil, nil, fmt.Errorf("%w: reshard to %d shards", core.ErrViolationDetected, info.NewShards)
	}

	var (
		pending []ReshardPending
		newKeys []aead.Key
	)
	for shard, sealed := range info.Handoffs {
		if err := s.protos[shard].Err(); err != nil {
			return nil, nil, err
		}
		handoff, err := core.OpenReshardHandoff(s.kcs[shard], sealed)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: shard %d: %w", core.ErrViolationDetected, shard, err)
		}
		if handoff.Gen != info.Gen || handoff.Src != shard ||
			handoff.OldShards != info.OldShards || handoff.NewShards != info.NewShards {
			return nil, nil, fmt.Errorf("%w: shard %d handoff describes gen %d src %d (%d→%d), info says gen %d (%d→%d)",
				core.ErrViolationDetected, shard, handoff.Gen, handoff.Src, handoff.OldShards,
				handoff.NewShards, info.Gen, info.OldShards, info.NewShards)
		}
		entry, ok := handoff.Entry(s.ID())
		if !ok {
			if !handoff.OmitsIdle {
				return nil, nil, fmt.Errorf("%w: shard %d handoff has no entry for client %d",
					core.ErrViolationDetected, shard, s.ID())
			}
			// Committee-mode handoffs omit idle members (zero context), so
			// absence is the source's assertion of a zero entry. The switch
			// below checks it against this client's own context exactly like
			// a present entry would be — a client that has invoked finds the
			// zero assertion mismatching its non-zero context and detects
			// the rollback.
			entry = core.ReshardEntry{ID: s.ID()}
		}
		st := s.protos[shard].State()
		switch {
		case entry.T == st.TC && entry.H == st.HC:
			// The source's last word on this client is exactly the
			// client's own context: nothing pending executed.
			if st.Pending != nil {
				pending = append(pending, ReshardPending{OldShard: shard, Op: st.Pending})
			}
		case st.Pending != nil && entry.TA == st.TC && entry.HA == st.HC:
			// The source acknowledged our context and executed one more
			// operation — our pending one. The handoff carries the cached
			// reply for it; consume it through the normal Alg. 1 reply
			// verification, which also advances this context to the
			// entry's (T, H) so the recovery is checked, not assumed.
			if len(entry.LastReply) == 0 {
				return nil, nil, fmt.Errorf("%w: shard %d handoff pins an executed operation for client %d but carries no cached reply",
					core.ErrViolationDetected, shard, s.ID())
			}
			res, err := s.protos[shard].ProcessReply(entry.LastReply)
			if err != nil {
				return nil, nil, fmt.Errorf("shard %d cached reply in reshard handoff: %w", shard, err)
			}
			pending = append(pending, ReshardPending{OldShard: shard, Op: st.Pending, Executed: true, Result: res})
		default:
			return nil, nil, fmt.Errorf("%w: shard %d handoff context (t=%d) does not match this client's (t=%d): rollback or forking attack during the reshard",
				core.ErrViolationDetected, shard, entry.T, st.TC)
		}
		if shard == 0 {
			if len(handoff.NewKCs) != info.NewShards {
				return nil, nil, fmt.Errorf("%w: lead handoff carries %d keys for %d new shards",
					core.ErrViolationDetected, len(handoff.NewKCs), info.NewShards)
			}
			for j, raw := range handoff.NewKCs {
				key, err := aead.KeyFromBytes(raw)
				if err != nil {
					return nil, nil, fmt.Errorf("%w: lead handoff key %d: %w", core.ErrViolationDetected, j, err)
				}
				newKeys = append(newKeys, key)
			}
		}
	}
	return newKeys, pending, nil
}

// AdoptReshard verifies the reshard (VerifyReshard) and, on success,
// returns a fresh session for the new generation over conn: one new
// protocol context per new shard, under the keys the lead's handoff
// carried. The old session keeps its (now poisoned-or-terminal)
// contexts for the caller to persist or discard; re-issue every
// not-executed pending operation from the report on the new session.
func (s *ShardedSession) AdoptReshard(info *core.ReshardInfo, conn transport.Conn) (*ShardedSession, []ReshardPending, error) {
	newKeys, pending, err := s.VerifyReshard(info)
	if err != nil {
		return nil, nil, err
	}
	cfg := s.cfg
	cfg.Gen = info.Gen
	return NewSharded(conn, s.ID(), newKeys, s.sharder, cfg), pending, nil
}

// Refresh is the convenience step around a resharded deployment: fetch
// the info on the current (stale) connection, verify it, and adopt the
// new generation over a freshly dialed connection. The old session is
// closed on success.
//
// Callers loop on the outcome: ErrNoReshard means the reshard is still
// in flight (retry shortly) — or was aborted and the old generation
// resumed, in which case repeated ErrNoReshard should be resolved by
// Recovering any pending operation on this same session (a successful
// Recover proves the old generation serves again). A violation
// (core.ErrViolationDetected) is final: the new generation was forged
// or the move hid an attack; do not adopt.
func (s *ShardedSession) Refresh(dial func() (transport.Conn, error)) (*ShardedSession, []ReshardPending, error) {
	info, err := s.FetchReshardInfo()
	if err != nil {
		return nil, nil, err
	}
	conn, err := dial()
	if err != nil {
		return nil, nil, err
	}
	next, pending, err := s.AdoptReshard(info, conn)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	// Tell the host this client is done with the old generation, so it
	// can reclaim retired storage once the whole group has moved over.
	// Best effort: a lost ack only delays the host's garbage collection.
	next.ackReshardAdopted()
	_ = s.Close()
	return next, pending, nil
}

// ackReshardAdopted reports this session's adopted generation to the
// host (wire.FrameReshardAdopted). The ack is operational, not part of
// the protocol: errors are ignored and nothing about the session's
// safety depends on it.
func (s *ShardedSession) ackReshardAdopted() {
	w := wire.NewWriter(12)
	w.U64(s.cfg.Gen)
	w.U32(s.ID())
	if err := s.link.send(wire.EncodeFrame(wire.FrameReshardAdopted, w.Bytes())); err != nil {
		return
	}
	_, _ = s.link.await(s.cfg.Timeout)
}
