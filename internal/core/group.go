// Client-group abstraction: membership, epochs, churn and the stability
// rule.
//
// The paper's protocol keeps one V entry per registered client and
// computes majority-stable(V) over the entire group (Sec. 4.5, Def. 2).
// That is the only stability rule: a forking host chooses which clients
// each twin serves, so a rule that counted only the clients a twin sees
// would let both branches of a fork become stable. Dead clients leave V
// through heartbeat eviction, not through a weaker quorum.
package core

import (
	"encoding/binary"
	"slices"

	"lcm/internal/aead"
	"lcm/internal/hashchain"
	"lcm/internal/wire"
)

// ventry is one client's entry in the protocol state V of Alg. 2. The
// paper stores the triple (ta, t, h):
//
//   - TA: the sequence number of the client's last acknowledged operation
//     (the tc the client presented with its most recent invocation, which
//     proves it received the reply for that operation);
//   - T: the sequence number of the client's last operation;
//   - H: the hash-chain value after that operation.
//
// The Sec. 4.6.1 crash-tolerance extension additionally caches the last
// REPLY (Reply) so a retry after a lost reply can be answered without
// re-executing the operation, plus HA (the chain value the client
// presented) so a retry's context can be verified exactly.
type ventry struct {
	TA    uint64
	HA    hashchain.Value
	T     uint64
	H     hashchain.Value
	Reply cachedReply
}

// cachedReply is what a V entry keeps of its last REPLY: nonce ‖ tag ‖
// U64 Q ‖ U64 BeaconSeq ‖ result (state.go), nil before the first one.
type cachedReply []byte

const (
	replyTagAt     = aead.NonceSize
	replyQAt       = replyTagAt + aead.TagSize
	cachedReplyMin = replyQAt + 16
)

// sealReply seals r, which carries e's T, H and HA, under kc and keeps
// what e does not hold of the seal in e.Reply.
func (e *ventry) sealReply(kc aead.Key, r *wire.Reply) ([]byte, error) {
	ct, err := aead.Seal(kc, r.Encode(), []byte(adReply))
	if err != nil {
		return nil, err
	}
	c := append(make(cachedReply, 0, cachedReplyMin+len(r.Result)), ct[:replyTagAt]...)
	c = append(c, ct[len(ct)-aead.TagSize:]...)
	c = binary.BigEndian.AppendUint64(c, r.Q)
	c = binary.BigEndian.AppendUint64(c, r.BeaconSeq)
	e.Reply = append(c, r.Result...)
	return ct, nil
}

// reply rebuilds the REPLY e.Reply was kept from.
func (e *ventry) reply() *wire.Reply {
	q, beaconSeq := binary.BigEndian.Uint64(e.Reply[replyQAt:]), binary.BigEndian.Uint64(e.Reply[replyQAt+8:])
	return &wire.Reply{T: e.T, H: e.H, HCPrev: e.HA, Q: q, BeaconSeq: beaconSeq, Result: e.Reply[cachedReplyMin:]}
}

// sealedReply re-derives the ciphertext e.Reply was kept from, under kc.
func (e *ventry) sealedReply(kc aead.Key) ([]byte, error) {
	return aead.Reseal(kc, e.Reply[:replyTagAt], e.Reply[replyTagAt:replyQAt], e.reply().Encode(), []byte(adReply))
}

// vmap is the protocol state V: one entry per group member.
type vmap map[uint32]*ventry

// newVMap initializes V to [0]^N for the given client identifiers.
func newVMap(clients []uint32) vmap {
	v := make(vmap, len(clients))
	for _, id := range clients {
		v[id] = &ventry{}
	}
	return v
}

// majorityStable implements majority-stable(V) from Sec. 4.5: the largest
// acknowledged sequence number a such that more than n/2 clients have
// acknowledged operations with sequence numbers ≥ a. Every operation with
// a sequence number ≤ the returned value is stable among a majority
// (Definition 2): each client Cj in the witnessing set has completed an
// operation with sequence number ≥ a — either a later operation (stable by
// Definition 1) or its own operation with that exact number (always stable
// w.r.t. its owner).
//
// Equivalently, it is the (⌊n/2⌋+1)-th largest acknowledged sequence
// number.
func (v vmap) majorityStable() uint64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	acks := make([]uint64, 0, n)
	for _, e := range v {
		acks = append(acks, e.TA)
	}
	slices.Sort(acks)
	return acks[n-1-n/2]
}

// clientIDs returns the group membership in ascending order.
func (v vmap) clientIDs() []uint32 {
	ids := make([]uint32, 0, len(v))
	for id := range v {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// clone deep-copies V (a checkpoint freezes it).
func (v vmap) clone() vmap {
	out := make(vmap, len(v))
	for id, e := range v {
		cp := *e
		cp.Reply = append(cachedReply(nil), e.Reply...)
		out[id] = &cp
	}
	return out
}

// Group owns everything about the registered client group that used to
// be an implicit vmap threaded through the trusted context: membership
// (V itself), the stability rule, the membership epoch, and churn
// bookkeeping (liveness, staged evictions, eviction tombstones).
//
// The liveness maps (lastActive, lastSeen) are deliberately volatile:
// after a restart they reset to the current epoch (graceEpoch), so a
// recovering deployment never mass-evicts its group. The persisted
// qFloor keeps the published stable value monotone across membership
// changes.
type Group struct {
	v vmap

	evictAfter int // TrustedConfig.EvictAfterEpochs; 0 disables heartbeat eviction

	epoch  uint64 // membership epoch, fenced by the trusted counter
	qFloor uint64 // monotone floor on every published stable value

	lastActive map[uint32]uint64 // clientID → epoch of last invoke (Status.ActiveClients)
	lastSeen   map[uint32]uint64 // clientID → epoch of last heartbeat/join/invoke
	graceEpoch uint64            // epoch at install; clients unseen since count from here

	evicted   map[uint32]struct{} // tombstones: ids cut off by eviction/leave
	staged    map[uint32]struct{} // admin-staged evictions, applied at the next seal
	evictions uint64              // total evictions ever applied
}

// newGroup wraps a fresh V for the given members.
func newGroup(clients []uint32) *Group {
	g := &Group{v: newVMap(clients)}
	g.initMaps()
	return g
}

func (g *Group) initMaps() {
	if g.lastActive == nil {
		g.lastActive = make(map[uint32]uint64)
	}
	if g.lastSeen == nil {
		g.lastSeen = make(map[uint32]uint64)
	}
	if g.evicted == nil {
		g.evicted = make(map[uint32]struct{})
	}
	if g.staged == nil {
		g.staged = make(map[uint32]struct{})
	}
}

// noteActive records a completed invocation: the client counts as
// active this epoch (and is trivially alive).
func (g *Group) noteActive(id uint32) {
	g.lastActive[id] = g.epoch
	g.lastSeen[id] = g.epoch
}

// noteSeen records a liveness-only signal (heartbeat, join).
func (g *Group) noteSeen(id uint32) {
	g.lastSeen[id] = g.epoch
}

// stable is the q a reply publishes: the paper's majority-stable(V)
// (Sec. 4.5), clamped up to the monotone qFloor — the highest value ever
// published — so membership changes (evictions, leaves, restarts) can
// never make the advertised stable sequence number regress, which
// clients would reject as a violation. It raises nothing; stableQ does.
//
// Every input is an acknowledged sequence number ≤ the current t, so the
// invariant q ≤ t of every REPLY is preserved.
func (g *Group) stable() uint64 {
	return max(g.qFloor, g.v.majorityStable())
}

// stableQ is stable, raising qFloor to it. Only the write path calls it:
// a batch's record seals the raised floor.
func (g *Group) stableQ() uint64 {
	g.qFloor = g.stable()
	return g.qFloor
}

// member reports whether id is currently registered.
func (g *Group) member(id uint32) bool {
	_, ok := g.v[id]
	return ok
}

// isEvicted reports whether id carries an eviction/leave tombstone.
func (g *Group) isEvicted(id uint32) bool {
	_, ok := g.evicted[id]
	return ok
}

// join adds a client (idempotent). A tombstoned id may rejoin — reaching
// the churn channel at all proves possession of the *current* kC, i.e.
// the administrator re-credentialed it after the rotation that cut it
// off. Reports whether membership actually changed.
func (g *Group) join(id uint32) bool {
	delete(g.evicted, id)
	g.noteSeen(id)
	if _, ok := g.v[id]; ok {
		return false
	}
	g.v[id] = &ventry{}
	return true
}

// leave removes a client voluntarily (no key rotation: the leaver holds
// kC legitimately and departs cooperatively). The last member cannot
// leave. Reports whether membership actually changed.
func (g *Group) leave(id uint32) bool {
	if _, ok := g.v[id]; !ok {
		return false
	}
	if len(g.v) == 1 {
		return false
	}
	delete(g.v, id)
	delete(g.lastActive, id)
	delete(g.lastSeen, id)
	g.evicted[id] = struct{}{}
	return true
}

// stageEvict marks a member for eviction at the next epoch seal.
// Batching evictions per epoch means one kC rotation cuts off the whole
// batch (Sec. 4.6.3's rotation, amortized).
func (g *Group) stageEvict(id uint32) bool {
	if _, ok := g.v[id]; !ok {
		return false
	}
	g.staged[id] = struct{}{}
	return true
}

// expiredMembers returns the members whose last liveness signal is more
// than evictAfter epochs old (never the last remaining member). Clients
// never seen since install count from graceEpoch, so a restart — which
// clears the volatile liveness maps — starts a fresh grace period
// instead of evicting everyone.
func (g *Group) expiredMembers(epoch uint64) []uint32 {
	if g.evictAfter <= 0 {
		return nil
	}
	var out []uint32
	for id := range g.v {
		seen, ok := g.lastSeen[id]
		if !ok {
			seen = g.graceEpoch
		}
		if seen+uint64(g.evictAfter) < epoch {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// takeEvictions collects and applies the epoch's eviction batch — the
// admin-staged ids plus the heartbeat-expired ones — and returns the ids
// actually removed, in ascending order. The caller must rotate kC when
// the result is non-empty.
func (g *Group) takeEvictions(epoch uint64) []uint32 {
	candidates := make(map[uint32]struct{}, len(g.staged))
	for id := range g.staged {
		if _, ok := g.v[id]; ok {
			candidates[id] = struct{}{}
		}
	}
	for _, id := range g.expiredMembers(epoch) {
		candidates[id] = struct{}{}
	}
	g.staged = make(map[uint32]struct{})
	ids := make([]uint32, 0, len(candidates))
	for id := range candidates {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	removed := ids[:0]
	for _, id := range ids {
		if len(g.v) <= 1 {
			break
		}
		delete(g.v, id)
		delete(g.lastActive, id)
		delete(g.lastSeen, id)
		g.evicted[id] = struct{}{}
		g.evictions++
		removed = append(removed, id)
	}
	return removed
}

// applyTombstones folds delta-record removals (leaves/evictions) during
// recovery, resharding and chain sync.
func (g *Group) applyTombstones(removed []uint32) {
	for _, id := range removed {
		delete(g.v, id)
		delete(g.lastActive, id)
		delete(g.lastSeen, id)
		g.evicted[id] = struct{}{}
	}
}

// evictedIDs returns the tombstoned ids in ascending order (for
// persistence).
func (g *Group) evictedIDs() []uint32 {
	ids := make([]uint32, 0, len(g.evicted))
	for id := range g.evicted {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// activeCount is the number of clients that invoked in the current or
// previous epoch (an operator counter; it plays no part in stability).
func (g *Group) activeCount() int {
	n := 0
	for _, e := range g.lastActive {
		if e+1 >= g.epoch {
			n++
		}
	}
	return n
}

// adoptState restores the group's persisted fields from a sealed state
// blob. The liveness maps stay empty: graceEpoch gives every member a
// fresh grace period.
func (g *Group) adoptState(state *trustedState) {
	g.v = state.V
	g.epoch = state.GroupEpoch
	g.graceEpoch = state.GroupEpoch
	g.qFloor = state.QFloor
	g.evictions = state.Evictions
	for _, id := range state.Evicted {
		g.evicted[id] = struct{}{}
	}
}
