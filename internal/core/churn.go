// Membership churn and the epoch-seal protocol.
//
// Classic LCM changes the group only through the admin channel
// (Sec. 4.6.3): one sealed AdminOp — and one O(state) full re-seal — per
// change. That is fine for tens of clients and hopeless for 10^5-10^6.
// This file adds the scalable paths:
//
//   - callChurn: clients join, leave and heartbeat directly over their
//     communication key kC, without an admin round trip. Possession of
//     the *current* kC is the authorizer (the group is mutually trusting,
//     Sec. 2.1, and an evictee's kC died with the last rotation). Churn
//     persists through ordinary delta records — a join is a V-entry
//     upsert, a leave a tombstone — so the cost is O(change), not
//     O(registered group).
//
//   - callEpochSeal: advances the membership epoch, fenced by a
//     dedicated trusted-counter cell so epoch numbers survive rollback,
//     applies the staged evictions as one batch (one kC rotation cuts
//     off the whole batch — Sec. 4.6.3's rotation, amortized), and gives
//     an epoch-aware service its housekeeping hook
//     (service.EpochAdvancer).
//
//   - callGroupInfo: the admin's sealed window into the group — current
//     membership, epoch, evictions, and the current kC (which
//     rotates without the admin's involvement at eviction seals).
//
// Churn messages that fail authentication are DROPPED, not treated as
// violations: after a kC rotation, cut-off clients keep heartbeating
// under the dead key, and halting the context on such residue would turn
// every eviction into a self-inflicted denial of service. Dropping is
// safe because churn is idempotent and replay-tolerant by design: a
// replayed join is a no-op, a replayed leave re-deletes an id that is
// already gone, and a replayed heartbeat refreshes liveness of a client
// the admin could re-admit anyway.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	"lcm/internal/aead"
	"lcm/internal/service"
	"lcm/internal/tee"
	"lcm/internal/wire"
)

// Associated-data labels for the churn channel and the group-info window.
const (
	adChurnMsg  = "lcm/msg/churn/v1"
	adChurnAck  = "lcm/msg/churnack/v1"
	adGroupInfo = "lcm/groupinfo/v1"
)

// Churn message kinds.
const (
	ChurnJoin byte = iota + 1
	ChurnLeave
	ChurnHeartbeat
)

// ChurnMsg is one client-originated membership signal, sealed under kC.
type ChurnMsg struct {
	Kind     byte
	ClientID uint32
}

func (m *ChurnMsg) encode() []byte {
	w := wire.NewWriter(5)
	w.U8(m.Kind)
	w.U32(m.ClientID)
	return w.Bytes()
}

func decodeChurnMsg(plain []byte) (*ChurnMsg, error) {
	r := wire.NewReader(plain)
	m := &ChurnMsg{Kind: r.U8(), ClientID: r.U32()}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: churn message: %w", err)
	}
	return m, nil
}

// ChurnAck answers a join or leave (heartbeats are fire-and-forget).
// Epoch and Members let the client observe the group it joined.
type ChurnAck struct {
	Kind     byte
	ClientID uint32
	OK       bool
	Epoch    uint64
	Members  uint32
}

func (a *ChurnAck) encode() []byte {
	w := wire.NewWriter(18)
	w.U8(a.Kind)
	w.U32(a.ClientID)
	w.Bool(a.OK)
	w.U64(a.Epoch)
	w.U32(a.Members)
	return w.Bytes()
}

func decodeChurnAck(plain []byte) (*ChurnAck, error) {
	r := wire.NewReader(plain)
	a := &ChurnAck{Kind: r.U8(), ClientID: r.U32(), OK: r.Bool(), Epoch: r.U64(), Members: r.U32()}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: churn ack: %w", err)
	}
	return a, nil
}

// SealChurnMsg seals one churn message under kC — the client side of the
// churn channel.
func SealChurnMsg(kc aead.Key, kind byte, clientID uint32) ([]byte, error) {
	m := ChurnMsg{Kind: kind, ClientID: clientID}
	ct, err := aead.Seal(kc, m.encode(), []byte(adChurnMsg))
	if err != nil {
		return nil, fmt.Errorf("lcm: seal churn message: %w", err)
	}
	return ct, nil
}

// OpenChurnAck opens and validates a churn acknowledgment against the
// kind and client id of the message it answers.
func OpenChurnAck(kc aead.Key, ct []byte, kind byte, clientID uint32) (*ChurnAck, error) {
	plain, err := aead.Open(kc, ct, []byte(adChurnAck))
	if err != nil {
		return nil, fmt.Errorf("lcm: churn ack failed authentication: %w", err)
	}
	ack, err := decodeChurnAck(plain)
	if err != nil {
		return nil, err
	}
	if ack.Kind != kind || ack.ClientID != clientID {
		return nil, errors.New("lcm: churn ack does not match the request")
	}
	return ack, nil
}

// EncodeChurnCall frames sealed churn messages as a callChurn ecall.
func EncodeChurnCall(msgs [][]byte) []byte {
	n := 5
	for _, m := range msgs {
		n += 4 + len(m)
	}
	w := wire.NewWriter(n)
	w.U8(callChurn)
	w.U32(uint32(len(msgs)))
	for _, m := range msgs {
		w.Var(m)
	}
	return w.Bytes()
}

// EncodeEpochSealCall encodes a callEpochSeal ecall.
func EncodeEpochSealCall() []byte { return []byte{callEpochSeal} }

// IsEpochSealCall reports whether payload is a callEpochSeal ecall — the
// host must route it through a persisting path (its result carries a
// sealed record like a batch's).
func IsEpochSealCall(payload []byte) bool {
	return len(payload) == 1 && payload[0] == callEpochSeal
}

// EncodeGroupInfoCall encodes a callGroupInfo ecall.
func EncodeGroupInfoCall() []byte { return []byte{callGroupInfo} }

// GroupInfo is the admin's view of the group, sealed under kP.
type GroupInfo struct {
	GroupEpoch uint64
	Evictions  uint64
	Members    []uint32
	Evicted    []uint32
	KC         []byte // current communication key (rotates at eviction seals)
}

func (gi *GroupInfo) encode() []byte {
	w := wire.NewWriter(32 + 4*len(gi.Members) + 4*len(gi.Evicted) + len(gi.KC))
	w.U64(gi.GroupEpoch)
	w.U64(gi.Evictions)
	w.U32(uint32(len(gi.Members)))
	for _, id := range gi.Members {
		w.U32(id)
	}
	w.U32(uint32(len(gi.Evicted)))
	for _, id := range gi.Evicted {
		w.U32(id)
	}
	w.Var(gi.KC)
	return w.Bytes()
}

func decodeGroupInfo(plain []byte) (*GroupInfo, error) {
	r := wire.NewReader(plain)
	gi := &GroupInfo{
		GroupEpoch: r.U64(),
		Evictions:  r.U64(),
	}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		gi.Members = append(gi.Members, r.U32())
	}
	n = r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		gi.Evicted = append(gi.Evicted, r.U32())
	}
	gi.KC = r.Var()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: group info: %w", err)
	}
	return gi, nil
}

// QueryGroupInfo fetches and opens the trusted context's group view.
// Only the holder of kP (the admin) can open the response.
func QueryGroupInfo(call CallFunc, kp aead.Key) (*GroupInfo, error) {
	resp, err := call(EncodeGroupInfoCall())
	if err != nil {
		return nil, err
	}
	plain, err := aead.Open(kp, resp, []byte(adGroupInfo))
	if err != nil {
		return nil, fmt.Errorf("lcm: group info failed authentication: %w", err)
	}
	return decodeGroupInfo(plain)
}

// epochCounterID derives the membership-epoch counter cell from kP —
// a dedicated cell, disjoint from the beacon's, so epoch fencing and
// clone detection never contend for one monotonic value.
func (p *Trusted) epochCounterID() string {
	sum := sha256.Sum256(append([]byte("lcm/epoch/counter/v1"), p.kp.Bytes()...))
	return hex.EncodeToString(sum[:])
}

// handleEpochSeal advances the membership epoch: it claims a fresh tick
// from the epoch counter (so epoch numbers are monotone across restarts
// and rollbacks — a rolled-back context cannot reuse an epoch), applies
// the staged and heartbeat-expired evictions as one batch, rotates kC
// when anything was evicted (minted in-enclave; the admin learns it via
// callGroupInfo) and runs the service's epoch hook. The result persists
// like a batch: a delta record in
// the common case, a full seal when a rotation changed kC.
func (p *Trusted) handleEpochSeal(env tee.Env) ([]byte, error) {
	if !p.provisioned() {
		return nil, ErrNotProvisioned
	}
	if p.resharded {
		return nil, ErrReshardedAway
	}
	if p.resh != nil {
		return nil, ErrResharding
	}
	newEpoch := env.CounterIncrement(p.epochCounterID())
	if newEpoch <= p.g.epoch {
		// An admin-recovered context's new platform counter starts below
		// the carried epoch; stay monotone from the context's own view.
		newEpoch = p.g.epoch + 1
	}
	removed := p.g.takeEvictions(newEpoch)
	if len(removed) > 0 {
		// Rotate kC so the whole eviction batch is cut off at once.
		raw := make([]byte, aead.KeySize)
		if err := env.Rand(raw); err != nil {
			return nil, fmt.Errorf("lcm: epoch kC rotation: %w", err)
		}
		newKC, err := aead.KeyFromBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("lcm: epoch kC rotation: %w", err)
		}
		p.kc = newKC
		// Re-seal the cached replies, so a retry across the rotation is
		// answered under the key its client now holds.
		for _, e := range p.g.v {
			if e.Reply != nil {
				if _, err := e.sealReply(newKC, e.reply()); err != nil {
					return nil, fmt.Errorf("lcm: epoch kC rotation: %w", err)
				}
			}
		}
	}
	if ea, ok := p.svc.(service.EpochAdvancer); ok {
		// Epoch-fenced housekeeping (e.g. escrow-record pruning); its
		// state changes land in this seal's delta or snapshot.
		ea.AdvanceEpoch(newEpoch)
	}
	p.g.epoch = newEpoch
	p.chargeFootprint(env)
	if p.readsArmed && p.snapReader != nil {
		p.snapReader.EndBatch(p.t)
	}
	res := BatchResult{Seq: p.t}
	if len(removed) > 0 {
		// A rotation changes kC, which lives only in the state blob: it
		// is sealed inline, and the committer stores it before any later
		// record.
		blob, err := p.sealState()
		if err != nil {
			return nil, err
		}
		res.StateBlob, res.Seg = blob, p.seg
	} else if err := p.sealResult(&res, &deltaRecord{FromT: p.t}); err != nil {
		return nil, err
	}
	return encodeBatchResult(&res), nil
}

// handleChurn processes a batch of sealed churn messages. Joins and
// leaves are acknowledged (sealed under kC); heartbeats produce no
// response at all. Membership changes persist through an ordinary delta
// record — O(change) — or a full seal outside delta mode.
func (p *Trusted) handleChurn(env tee.Env, msgs [][]byte) ([]byte, error) {
	if !p.provisioned() {
		return nil, ErrNotProvisioned
	}
	if p.resharded {
		return nil, ErrReshardedAway
	}
	if p.resh != nil {
		return nil, ErrResharding
	}
	replies := make([][]byte, len(msgs))
	touched := make(map[uint32]*ventry)
	removedSet := make(map[uint32]struct{})
	for i, ct := range msgs {
		plain, err := aead.Open(p.kc, ct, []byte(adChurnMsg))
		if err != nil {
			// Stale-key residue (see package doc): drop, never halt.
			continue
		}
		msg, err := decodeChurnMsg(plain)
		if err != nil {
			continue
		}
		var ack *ChurnAck
		switch msg.Kind {
		case ChurnJoin:
			if p.g.join(msg.ClientID) {
				touched[msg.ClientID] = p.g.v[msg.ClientID]
				delete(removedSet, msg.ClientID)
			}
			ack = &ChurnAck{Kind: msg.Kind, ClientID: msg.ClientID, OK: true}
		case ChurnLeave:
			ok := p.g.leave(msg.ClientID)
			if ok {
				removedSet[msg.ClientID] = struct{}{}
				delete(touched, msg.ClientID)
			}
			// Leaving an id that is already gone is success (idempotent);
			// only "last member cannot leave" reports failure.
			ack = &ChurnAck{Kind: msg.Kind, ClientID: msg.ClientID, OK: ok || !p.g.member(msg.ClientID)}
		case ChurnHeartbeat:
			if p.g.member(msg.ClientID) {
				p.g.noteSeen(msg.ClientID)
			}
		default:
			continue
		}
		if ack != nil {
			ack.Epoch = p.g.epoch
			ack.Members = uint32(len(p.g.v))
			ackCT, err := aead.Seal(p.kc, ack.encode(), []byte(adChurnAck))
			if err != nil {
				return nil, fmt.Errorf("lcm: seal churn ack: %w", err)
			}
			replies[i] = ackCT
		}
	}
	res := BatchResult{Replies: replies, Seq: p.t}
	if len(touched) > 0 || len(removedSet) > 0 {
		removed := make([]uint32, 0, len(removedSet))
		for id := range removedSet {
			removed = append(removed, id)
		}
		slices.Sort(removed)
		// Joined entries have no earlier (T, H): they carry their anchors.
		rec := deltaRecord{FromT: p.t, Entries: touched, Anchors: true, Removed: removed}
		if err := p.sealResult(&res, &rec); err != nil {
			return nil, err
		}
	}
	return encodeBatchResult(&res), nil
}

// handleGroupInfo seals the group view for the admin.
func (p *Trusted) handleGroupInfo() ([]byte, error) {
	if !p.provisioned() {
		return nil, ErrNotProvisioned
	}
	info := GroupInfo{
		GroupEpoch: p.g.epoch,
		Evictions:  p.g.evictions,
		Members:    p.g.v.clientIDs(),
		Evicted:    p.g.evictedIDs(),
		KC:         p.kc.Bytes(),
	}
	ct, err := aead.Seal(p.kp, info.encode(), []byte(adGroupInfo))
	if err != nil {
		return nil, fmt.Errorf("lcm: seal group info: %w", err)
	}
	return ct, nil
}
