// Package consistency verifies the guarantee LCM promises its clients:
// fork-linearizability (Sec. 3.2.1). A test harness records every
// completed operation — its client, assigned sequence number, operation
// bytes, result and hash-chain value — and the checker validates that the
// collected views could have been produced by a fork-linearizable
// execution:
//
//  1. Each client's view is well-formed: strictly increasing sequence
//     numbers, non-decreasing stability, stability never ahead of the
//     sequence.
//  2. Views agree below joins: whenever two clients observe the same
//     sequence number, either their chain values match (same fork) or —
//     once they have diverged at some sequence number — they never agree
//     on any later one ("forked forever", the no-join property).
//  3. Each fork's combined history is consistent with the functionality F:
//     replaying the recorded operations in sequence order through a fresh
//     service reproduces every recorded result, and the recorded chain
//     values match a recomputation of the hash chain.
//  4. Majority-stability is honoured: an operation a client reports stable
//     must lie on the common prefix of a majority of clients' views.
package consistency

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"

	"lcm/internal/hashchain"
	"lcm/internal/service"
)

// Event is one completed operation as observed by a client. In a sharded
// deployment Shard identifies the LCM instance that executed it; each
// shard is an independent protocol context with its own sequence space
// and hash chain, so cross-shard validation (CheckSharded) stitches the
// global history from per-shard sub-histories rather than interleaving
// them. A scatter-gather scan contributes one event per shard — all with
// the same operation bytes but each with that shard's local result,
// sequence number and chain value.
//
// Gen is the reshard generation the executing shard belonged to (0 until
// the first live reshard). A reshard retires every old shard's chain and
// starts fresh ones, so shard index i before and after a reshard names
// two unrelated protocol contexts; (Gen, Shard) is the true sub-history
// key, and CheckSharded stitches across the boundary with the rules
// documented there.
type Event struct {
	Client uint32
	Gen    int
	Shard  int
	Seq    uint64
	Stable uint64
	Op     []byte
	Result []byte
	Chain  hashchain.Value
}

// Log collects events from concurrent clients.
type Log struct {
	mu     sync.Mutex
	events []Event
}

// NewLog returns an empty log.
func NewLog() *Log {
	return &Log{}
}

// Record appends one event. Safe for concurrent use.
func (l *Log) Record(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.Op = append([]byte(nil), e.Op...)
	e.Result = append([]byte(nil), e.Result...)
	l.events = append(l.events, e)
}

// Events returns a copy of all recorded events.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.events...)
}

// Len returns the number of recorded events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.events)
}

// ViolationError describes a consistency violation found by Check.
type ViolationError struct {
	Rule   string
	Detail string
}

// Error implements error.
func (e *ViolationError) Error() string {
	return fmt.Sprintf("consistency: %s: %s", e.Rule, e.Detail)
}

func violation(rule, format string, args ...any) error {
	return &ViolationError{Rule: rule, Detail: fmt.Sprintf(format, args...)}
}

// Check validates the recorded events against fork-linearizability for the
// functionality produced by newService. A nil return means the history is
// fork-linearizable; tests combine it with detection assertions (either
// every client is consistent, or someone detected the attack). Events
// from every shard are validated as one history — for multi-shard logs
// use CheckSharded, which validates each shard's sub-history against its
// own protocol context.
func (l *Log) Check(newService service.Factory) error {
	return checkEvents(l.Events(), newService)
}

// CheckSharded validates a multi-shard history: the events are split by
// (generation, shard) and each sub-history must independently be
// fork-linearizable. This is exactly LCM's guarantee for a sharded
// deployment — each shard is its own trusted context with its own chain,
// and nothing orders operations across shards. The per-shard events of
// one scatter-gather scan are validated like any other operations: each
// shard's replay reproduces that shard's partial scan result, so a shard
// that served a scan from a forked or rolled-back state fails its
// sub-history's check.
//
// Across a reshard boundary the stitching rule is per client: a client's
// generation never regresses in its completion order. Adopting
// generation g+1 requires verifying every source shard's sealed handoff
// against the client's own contexts (client.VerifyReshard), so an event
// recorded at g+1 certifies the client's entire g history was accepted
// by the move; observing g again afterwards would mean the client was
// fed two worlds — exactly the fork the handoff exists to prevent.
func (l *Log) CheckSharded(newService service.Factory) error {
	events := l.Events()

	// Cross-boundary rule: per-client generation monotonicity. Events
	// were recorded in completion order per client (clients are
	// sequential), so a regression means the client observed an old
	// generation after adopting a newer one.
	lastGen := make(map[uint32]int)
	for _, e := range events {
		if last, ok := lastGen[e.Client]; ok && e.Gen < last {
			return violation("generation-monotonicity",
				"client %d completed an operation in generation %d after adopting generation %d",
				e.Client, e.Gen, last)
		}
		lastGen[e.Client] = e.Gen
	}

	for key, sub := range eventsByGenShard(events) {
		if err := checkEvents(sub, newService); err != nil {
			return fmt.Errorf("gen %d shard %d: %w", key.gen, key.shard, err)
		}
	}
	return nil
}

// genShard keys one protocol context's sub-history.
type genShard struct {
	gen   int
	shard int
}

// eventsByGenShard groups events by the protocol context that executed
// them.
func eventsByGenShard(events []Event) map[genShard][]Event {
	byCtx := make(map[genShard][]Event)
	for _, e := range events {
		key := genShard{gen: e.Gen, shard: e.Shard}
		byCtx[key] = append(byCtx[key], e)
	}
	return byCtx
}

// eventsByShard groups the recorded events by executing shard (all
// generations together — callers that predate resharding record only
// generation 0).
func (l *Log) eventsByShard() map[int][]Event {
	byShard := make(map[int][]Event)
	for _, e := range l.Events() {
		byShard[e.Shard] = append(byShard[e.Shard], e)
	}
	return byShard
}

func checkEvents(events []Event, newService service.Factory) error {
	byClient := make(map[uint32][]Event)
	for _, e := range events {
		byClient[e.Client] = append(byClient[e.Client], e)
	}

	// Rule 1: per-client well-formedness. Events were recorded in
	// completion order per client.
	for id, evs := range byClient {
		var lastSeq, lastStable uint64
		for i, e := range evs {
			if e.Seq <= lastSeq {
				return violation("sequence-monotonicity",
					"client %d: op %d returned seq %d after seq %d", id, i, e.Seq, lastSeq)
			}
			if e.Stable < lastStable {
				return violation("stability-monotonicity",
					"client %d: stable regressed from %d to %d", id, lastStable, e.Stable)
			}
			if e.Stable > e.Seq {
				return violation("stability-bound",
					"client %d: stable %d ahead of seq %d", id, e.Stable, e.Seq)
			}
			lastSeq, lastStable = e.Seq, e.Stable
		}
	}

	// Index chain values by (client, seq) for the cross-view rules.
	views := make(map[uint32]map[uint64]obs, len(byClient))
	for id, evs := range byClient {
		view := make(map[uint64]obs, len(evs))
		for _, e := range evs {
			view[e.Seq] = obs{chain: e.Chain, event: e}
		}
		views[id] = view
	}

	// Rule 2: no join after fork, for every client pair.
	ids := make([]uint32, 0, len(views))
	for id := range views {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if err := checkNoJoin(ids[i], views[ids[i]], ids[j], views[ids[j]]); err != nil {
				return err
			}
		}
	}

	// Partition clients into forks: two clients share a fork iff their
	// views agree on every common sequence number. (After rule 2, "ever
	// disagree" is equivalent to "disagree from some point on".)
	forks := partitionForks(ids, views)

	// Rule 3: each fork's combined history replays correctly.
	for _, fork := range forks {
		if err := replayFork(fork, byClient, newService); err != nil {
			return err
		}
	}

	// Rule 4: majority stability. For each client event, operations with
	// seq ≤ Stable must be observed identically by a majority of the
	// whole group (clients that never completed an op count toward n but
	// cannot be witnesses). A witness is a client whose view includes an
	// event at or beyond Stable on the same fork as id: each fork's
	// highest seqs, sorted once, count them with a binary search.
	n := len(byClient)
	highs := make(map[uint32][]uint64, n) // client → its fork's highest seqs, ascending
	for _, fork := range forks {
		seqs := make([]uint64, len(fork))
		for i, id := range fork {
			seqs[i] = maxSeq(byClient[id])
		}
		slices.Sort(seqs)
		for _, id := range fork {
			highs[id] = seqs
		}
	}
	for id, evs := range byClient {
		for _, e := range evs {
			if e.Stable == 0 {
				continue
			}
			below, _ := slices.BinarySearch(highs[id], e.Stable)
			if witnesses := len(highs[id]) - below; 2*witnesses <= n {
				return violation("majority-stability",
					"client %d reported seq %d stable with only %d/%d witnesses",
					id, e.Stable, witnesses, n)
			}
		}
	}
	return nil
}

// Forks partitions the recorded clients into fork groups: two clients
// share a group iff their views agree on every sequence number both
// observed. A clean history yields one group; a history recorded under a
// forking attack yields one group per partition. Tests of sharded
// deployments use it to localise an attack — the attacked shard's log
// splits into multiple groups while every other shard's log stays whole.
//
// The partition is only meaningful for histories that pass Check (Check
// also enforces the no-join property that makes "ever disagree"
// equivalent to "forked forever").
func (l *Log) Forks() [][]uint32 {
	return forksOf(l.Events())
}

// ShardForks is Forks restricted to the events one shard executed — how a
// multi-shard test localises a forking attack: the attacked shard's
// events split into several groups while every other shard's stay whole.
func (l *Log) ShardForks(shard int) [][]uint32 {
	return forksOf(l.eventsByShard()[shard])
}

// CloneEvidence is the verdict GenShardCloneEvidence extracts from a
// recorded history: two clients each completed a DIFFERENT operation
// under the SAME sequence number — the slot was assigned twice, which
// only two instances of the context serving concurrently can produce (a
// cloning attack, or a fork whose source instance kept serving — the
// other two-live-writer attack). A fork that abandons its source (or any
// single-instance history, however partitioned) never collides a slot:
// one instance assigns each sequence number exactly once.
type CloneEvidence struct {
	ClientA, ClientB uint32    // the colliding observers, ClientA < ClientB
	Seq              uint64    // the first doubly-assigned sequence number
	RangeA, RangeB   [2]uint64 // each client's observed [min,max] seq span
}

// String formats the evidence as a violation-style message.
func (e *CloneEvidence) String() string {
	return fmt.Sprintf(
		"seq %d assigned twice: client %d (view [%d,%d]) and client %d (view [%d,%d]) hold diverged operations for it — two concurrent writers on one context",
		e.Seq, e.ClientA, e.RangeA[0], e.RangeA[1], e.ClientB, e.RangeB[0], e.RangeB[1])
}

// GenShardCloneEvidence inspects one protocol context's sub-history for
// evidence of two live writers: the lowest sequence number two clients
// both observed with diverged chain values. A nil return means the
// history — even one whose client partitions never overlap — is
// explainable by a single instance; non-nil proves two instances were
// assigning sequence numbers concurrently.
//
// The rule is deliberately pairwise rather than fork-group-based: with
// many clients, Forks' partition can transitively merge two genuinely
// diverged partitions through clients that happen to share no sequence
// numbers with one side, but a slot collision between ANY two views is
// direct evidence regardless of how the partition resolves.
func (l *Log) GenShardCloneEvidence(gen, shard int) *CloneEvidence {
	var events []Event
	for _, e := range l.Events() {
		if e.Gen == gen && e.Shard == shard {
			events = append(events, e)
		}
	}
	byClient := make(map[uint32]map[uint64]hashchain.Value)
	ranges := make(map[uint32][2]uint64)
	ids := make([]uint32, 0, len(byClient))
	for _, e := range events {
		view, ok := byClient[e.Client]
		if !ok {
			view = make(map[uint64]hashchain.Value)
			byClient[e.Client] = view
			ranges[e.Client] = [2]uint64{e.Seq, e.Seq}
			ids = append(ids, e.Client)
		}
		view[e.Seq] = e.Chain
		r := ranges[e.Client]
		if e.Seq < r[0] {
			r[0] = e.Seq
		}
		if e.Seq > r[1] {
			r[1] = e.Seq
		}
		ranges[e.Client] = r
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var best *CloneEvidence
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			a, b := byClient[ids[i]], byClient[ids[j]]
			for seq, chainA := range a {
				if chainB, ok := b[seq]; ok && chainA != chainB {
					if best == nil || seq < best.Seq {
						best = &CloneEvidence{
							ClientA: ids[i], ClientB: ids[j], Seq: seq,
							RangeA: ranges[ids[i]], RangeB: ranges[ids[j]],
						}
					}
				}
			}
		}
	}
	return best
}

func forksOf(events []Event) [][]uint32 {
	byClient := make(map[uint32][]Event)
	for _, e := range events {
		byClient[e.Client] = append(byClient[e.Client], e)
	}
	views := make(map[uint32]map[uint64]obs, len(byClient))
	ids := make([]uint32, 0, len(byClient))
	for id, evs := range byClient {
		view := make(map[uint64]obs, len(evs))
		for _, e := range evs {
			view[e.Seq] = obs{chain: e.Chain, event: e}
		}
		views[id] = view
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return partitionForks(ids, views)
}

func maxSeq(evs []Event) uint64 {
	var m uint64
	for _, e := range evs {
		if e.Seq > m {
			m = e.Seq
		}
	}
	return m
}

// checkNoJoin enforces: once two views disagree at some sequence number,
// they never agree at any later one.
func checkNoJoin(idA uint32, a map[uint64]obs, idB uint32, b map[uint64]obs) error {
	common := make([]uint64, 0)
	for seq := range a {
		if _, ok := b[seq]; ok {
			common = append(common, seq)
		}
	}
	sort.Slice(common, func(i, j int) bool { return common[i] < common[j] })
	diverged := false
	var divergedAt uint64
	for _, seq := range common {
		agree := a[seq].chain == b[seq].chain
		if diverged && agree {
			return violation("no-join-after-fork",
				"clients %d and %d diverged at seq %d but agree again at seq %d",
				idA, idB, divergedAt, seq)
		}
		if !diverged && !agree {
			diverged = true
			divergedAt = seq
		}
	}
	return nil
}

type obs struct {
	chain hashchain.Value
	event Event
}

// partitionForks groups clients whose views are mutually consistent.
func partitionForks(ids []uint32, views map[uint32]map[uint64]obs) [][]uint32 {
	parent := make(map[uint32]uint32, len(ids))
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, id := range ids {
		parent[id] = id
	}
	consistent := func(a, b map[uint64]obs) bool {
		for seq, oa := range a {
			if ob, ok := b[seq]; ok && ob.chain != oa.chain {
				return false
			}
		}
		return true
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if consistent(views[ids[i]], views[ids[j]]) {
				parent[find(ids[i])] = find(ids[j])
			}
		}
	}
	groups := make(map[uint32][]uint32)
	for _, id := range ids {
		root := find(id)
		groups[root] = append(groups[root], id)
	}
	out := make([][]uint32, 0, len(groups))
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// replayFork replays one fork's combined operations in sequence order
// through a fresh service and validates results and chain values.
func replayFork(fork []uint32, byClient map[uint32][]Event, newService service.Factory) error {
	var all []Event
	for _, id := range fork {
		all = append(all, byClient[id]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Seq < all[j].Seq })

	// Duplicate sequence numbers within one fork would mean two distinct
	// operations share a slot.
	for i := 1; i < len(all); i++ {
		if all[i].Seq == all[i-1].Seq {
			return violation("unique-sequence",
				"fork %v: clients %d and %d both hold seq %d",
				fork, all[i-1].Client, all[i].Client, all[i].Seq)
		}
	}

	// Replay. Views may have gaps (operations by clients whose records we
	// lack); replay is only sound on a gap-free prefix, so validate up to
	// the first gap.
	svc := newService()
	chain := hashchain.Initial()
	expected := uint64(1)
	for _, e := range all {
		if e.Seq != expected {
			break // gap: a client outside the recorded set owns this slot
		}
		result, err := svc.Apply(e.Op)
		if err != nil {
			return violation("replay", "fork %v: op at seq %d rejected: %v", fork, e.Seq, err)
		}
		if !bytes.Equal(result, e.Result) {
			return violation("replay",
				"fork %v: result at seq %d diverges from a linearizable execution", fork, e.Seq)
		}
		chain = hashchain.Extend(chain, e.Op, e.Seq, e.Client)
		if chain != e.Chain {
			return violation("hash-chain",
				"fork %v: chain at seq %d does not match recomputation", fork, e.Seq)
		}
		expected++
	}
	return nil
}
