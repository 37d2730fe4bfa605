// Client-group abstraction: membership, witness committees and the
// stability strategy.
//
// The paper's protocol keeps one V entry per *registered* client and
// quorums majority-stable(V) over the entire group (Sec. 4.5), which
// makes registered-group size a hard scalability wall: every status
// exchange and reshard handoff is O(registered clients) and one dead
// client forever caps the quorum. Group generalizes this: below a
// threshold it is exactly the paper's full-group rule; above it the
// registered clients are partitioned into small witness committees
// (deterministic assignment by client-id hash, re-sealed per epoch) and
// stability is computed from the *active* witness set plus the sealed
// per-committee epoch digests, so the steady-state cost is
// O(committees + active set) regardless of how many clients are merely
// registered.
package core

import (
	"crypto/sha256"
	"sort"

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
// REPLY ciphertext so a retry after a lost reply can be answered without
// re-executing the operation, plus HA (the chain value the client
// presented) so a retry's context can be verified exactly.
type ventry struct {
	TA        uint64
	HA        hashchain.Value
	T         uint64
	H         hashchain.Value
	LastReply []byte
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
	sort.Slice(acks, func(i, j int) bool { return acks[i] > acks[j] })
	return acks[n/2]
}

// clientIDs returns the group membership in ascending order.
func (v vmap) clientIDs() []uint32 {
	ids := make([]uint32, 0, len(v))
	for id := range v {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// clone deep-copies V (used by migration export).
func (v vmap) clone() vmap {
	out := make(vmap, len(v))
	for id, e := range v {
		cp := *e
		cp.LastReply = append([]byte(nil), e.LastReply...)
		out[id] = &cp
	}
	return out
}

// Default committee parameters. A registered group at or below
// DefaultStabilityThreshold uses the paper's exact full-group
// majority-stable rule; above it the committee strategy takes over.
const (
	DefaultCommitteeSize      = 64
	DefaultStabilityThreshold = 128
)

// CommitteeDigest is one committee's sealed epoch digest: it stands in
// for its members' individual V entries in status frames and reshard
// handoffs. AggStable is the committee-local majority-stable over the
// member TAs at the moment the epoch was sealed; ContextHash binds the
// digest to the exact member contexts it summarizes.
type CommitteeDigest struct {
	Committee   uint32
	Epoch       uint64
	AggStable   uint64
	Members     uint32
	ContextHash [32]byte
}

func (d *CommitteeDigest) encodeTo(w *wire.Writer) {
	w.U32(d.Committee)
	w.U64(d.Epoch)
	w.U64(d.AggStable)
	w.U32(d.Members)
	w.Bytes32(d.ContextHash)
}

func decodeCommitteeDigest(r *wire.Reader) CommitteeDigest {
	var d CommitteeDigest
	d.Committee = r.U32()
	d.Epoch = r.U64()
	d.AggStable = r.U64()
	d.Members = r.U32()
	d.ContextHash = r.Bytes32()
	return d
}

// Group owns everything about the registered client group that used to
// be an implicit vmap threaded through the trusted context: membership
// (V itself), committee assignment, the stability strategy, the
// membership epoch, and churn bookkeeping (liveness, staged evictions,
// eviction tombstones).
//
// The liveness maps (lastActive, lastSeen) are deliberately volatile:
// after a restart they reset to the current epoch (graceEpoch), so a
// recovering deployment never mass-evicts its group and never regresses
// stability — the persisted qFloor carries the published floor across
// the gap until active witnesses re-acknowledge.
type Group struct {
	v vmap

	// Strategy configuration (from TrustedConfig; committeeSize may be
	// overridden at runtime by Admin.SetCommitteeSize and is then
	// persisted).
	committeeSize int // runtime override; 0 → cfgCommittee
	cfgCommittee  int // TrustedConfig.CommitteeSize; 0 → DefaultCommitteeSize
	threshold     int // TrustedConfig.StabilityThreshold; 0 → DefaultStabilityThreshold
	evictAfter    int // TrustedConfig.EvictAfterEpochs; 0 disables heartbeat eviction

	epoch  uint64 // membership epoch, fenced by the trusted counter
	qFloor uint64 // monotone floor on every published stable value

	lastActive map[uint32]uint64 // clientID → epoch of last invoke (witness set)
	lastSeen   map[uint32]uint64 // clientID → epoch of last heartbeat/join/invoke
	graceEpoch uint64            // epoch at install; clients unseen since count from here

	digests     []CommitteeDigest // sealed at the last epoch boundary
	digestFloor uint64            // min over digests of AggStable (cached)

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

// configure applies the TrustedConfig knobs (idempotent; called at
// provision and at every state install).
func (g *Group) configure(committeeSize, threshold, evictAfter int) {
	g.cfgCommittee = committeeSize
	g.threshold = threshold
	g.evictAfter = evictAfter
}

func (g *Group) effectiveCommitteeSize() int {
	if g.committeeSize > 0 {
		return g.committeeSize
	}
	if g.cfgCommittee > 0 {
		return g.cfgCommittee
	}
	return DefaultCommitteeSize
}

func (g *Group) effectiveThreshold() int {
	if g.threshold > 0 {
		return g.threshold
	}
	return DefaultStabilityThreshold
}

// committeeMode reports whether the registered group is large enough for
// the committee strategy; at or below the threshold the paper's exact
// full-group rule applies.
func (g *Group) committeeMode() bool {
	return len(g.v) > g.effectiveThreshold()
}

// numCommittees is ⌈n/k⌉ for the current membership.
func (g *Group) numCommittees() int {
	n := len(g.v)
	if n == 0 {
		return 0
	}
	k := g.effectiveCommitteeSize()
	return (n + k - 1) / k
}

// committeeOf assigns a client to a committee with a stable hash
// (FNV-1a over the big-endian id), mod the current committee count. The
// assignment is deterministic given (membership size, committee size),
// and is re-derived — "re-sealed" — at every epoch boundary when the
// digests are recomputed.
func committeeOf(id uint32, numCommittees int) uint32 {
	if numCommittees <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for shift := 24; shift >= 0; shift -= 8 {
		h ^= uint64(byte(id >> shift))
		h *= prime64
	}
	return uint32(h % uint64(numCommittees))
}

// computeDigests derives the per-committee epoch digests from the
// current V. One O(n) pass per epoch seal — never on the per-operation
// path. The per-committee AggStable is the committee-local
// majority-stable over member TAs; the digest floor (min over
// committees) is therefore a sequence number that a majority of EVERY
// committee — in particular, a majority of the whole registered group —
// has acknowledged, so it is a sound global stability lower bound.
// (Taking a majority of committee medians instead would NOT be sound:
// majorities of some committees can cover a minority of the group.)
func (g *Group) computeDigests(epoch uint64) []CommitteeDigest {
	nc := g.numCommittees()
	if nc == 0 {
		return nil
	}
	members := make([][]uint32, nc)
	for _, id := range g.v.clientIDs() {
		c := committeeOf(id, nc)
		members[c] = append(members[c], id)
	}
	digests := make([]CommitteeDigest, 0, nc)
	for c, ids := range members {
		d := CommitteeDigest{Committee: uint32(c), Epoch: epoch, Members: uint32(len(ids))}
		if len(ids) == 0 {
			digests = append(digests, d)
			continue
		}
		acks := make([]uint64, 0, len(ids))
		hash := sha256.New()
		var buf [8]byte
		for _, id := range ids {
			e := g.v[id]
			acks = append(acks, e.TA)
			putU32(hash, &buf, id)
			putU64(hash, &buf, e.TA)
			putU64(hash, &buf, e.T)
			hash.Write(e.H[:])
		}
		sort.Slice(acks, func(i, j int) bool { return acks[i] > acks[j] })
		d.AggStable = acks[len(acks)/2]
		hash.Sum(d.ContextHash[:0])
		digests = append(digests, d)
	}
	return digests
}

type hashWriter interface{ Write([]byte) (int, error) }

func putU32(h hashWriter, buf *[8]byte, v uint32) {
	buf[0], buf[1], buf[2], buf[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	h.Write(buf[:4])
}

func putU64(h hashWriter, buf *[8]byte, v uint64) {
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (56 - 8*i))
	}
	h.Write(buf[:8])
}

// sealEpoch advances the membership epoch and recomputes the committee
// digests (and the cached digest floor) from the current V.
func (g *Group) sealEpoch(epoch uint64) {
	g.epoch = epoch
	g.digests = g.computeDigests(epoch)
	g.digestFloor = 0
	for i, d := range g.digests {
		if i == 0 || d.AggStable < g.digestFloor {
			g.digestFloor = d.AggStable
		}
	}
}

// noteActive records a completed invocation: the client joins the
// current epoch's witness set (and is trivially alive).
func (g *Group) noteActive(id uint32) {
	g.lastActive[id] = g.epoch
	g.lastSeen[id] = g.epoch
}

// noteSeen records a liveness-only signal (heartbeat, join).
func (g *Group) noteSeen(id uint32) {
	g.lastSeen[id] = g.epoch
}

// activeMajority is the majority-stable over the clients that invoked in
// the current or previous epoch — the live witness set. O(active), not
// O(registered).
func (g *Group) activeMajority() uint64 {
	acks := make([]uint64, 0, len(g.lastActive))
	for id, e := range g.lastActive {
		if e+1 < g.epoch {
			continue
		}
		if ent, ok := g.v[id]; ok {
			acks = append(acks, ent.TA)
		}
	}
	if len(acks) == 0 {
		return 0
	}
	sort.Slice(acks, func(i, j int) bool { return acks[i] > acks[j] })
	return acks[len(acks)/2]
}

// stableQ is the stability strategy. At or below the threshold it is the
// paper's exact majority-stable(V). Above it, stability is witnessed by
// the active set and floored by the committee digests:
//
//	q = max(majority-stable(active witnesses), min over committees of AggStable)
//
// In both modes the result is clamped up to the monotone qFloor — the
// highest value ever published — so membership changes (evictions,
// removals, restarts) can never make the advertised stable sequence
// number regress, which clients would reject as a violation.
//
// Every input is an acknowledged sequence number ≤ the current t, so the
// invariant q ≤ t of every REPLY is preserved.
func (g *Group) stableQ() uint64 {
	var q uint64
	if g.committeeMode() {
		q = g.activeMajority()
		if g.digestFloor > q {
			q = g.digestFloor
		}
	} else {
		q = g.v.majorityStable()
	}
	if q > g.qFloor {
		g.qFloor = q
	}
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
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
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

// remove deletes a member through the legacy admin path (no tombstone:
// the id may be re-added by a later AddClient, as the original API
// allowed).
func (g *Group) remove(id uint32) {
	delete(g.v, id)
	delete(g.lastActive, id)
	delete(g.lastSeen, id)
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
	sortU32(ids)
	return ids
}

// activeCount is the size of the current witness set (clients that
// invoked in the current or previous epoch).
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
// fresh grace period, and the monotone qFloor carries the published
// stability floor until active witnesses re-acknowledge.
func (g *Group) adoptState(state *trustedState) {
	g.v = state.V
	g.epoch = state.GroupEpoch
	g.graceEpoch = state.GroupEpoch
	g.qFloor = state.QFloor
	g.committeeSize = int(state.CommitteeSize)
	g.evictions = state.Evictions
	for _, id := range state.Evicted {
		g.evicted[id] = struct{}{}
	}
}

func sortU32(ids []uint32) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
