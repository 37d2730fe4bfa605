package core

import (
	"fmt"
	"testing"
)

// makeGroup builds a group of n clients (ids 1..n), all TAs zero.
func makeGroup(n int) *Group {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	return newGroup(ids)
}

func TestGroupChurn(t *testing.T) {
	g := makeGroup(3)

	// Join is idempotent; a fresh id extends the group.
	if g.join(2) {
		t.Fatal("joining an existing member must report no change")
	}
	if !g.join(4) || !g.member(4) {
		t.Fatal("join of a fresh id must register it")
	}

	// Leave tombstones; the tombstone blocks nothing once the id rejoins
	// (rejoin proves possession of the current kC).
	if !g.leave(4) || g.member(4) || !g.isEvicted(4) {
		t.Fatal("leave must remove and tombstone")
	}
	if !g.join(4) || g.isEvicted(4) {
		t.Fatal("rejoin must clear the tombstone")
	}

	// Staged evictions apply only at the seal, batched.
	if !g.stageEvict(1) || !g.stageEvict(4) {
		t.Fatal("staging existing members must succeed")
	}
	if g.stageEvict(99) {
		t.Fatal("staging a non-member must fail")
	}
	if g.member(1) != true {
		t.Fatal("staged eviction must not apply before the seal")
	}
	removed := g.takeEvictions(1)
	if len(removed) != 2 || removed[0] != 1 || removed[1] != 4 {
		t.Fatalf("eviction batch = %v, want [1 4]", removed)
	}
	if g.member(1) || !g.isEvicted(1) || g.evictions != 2 {
		t.Fatal("evictions must remove, tombstone and count")
	}

	// The last member can neither leave nor be evicted away.
	if !g.leave(2) {
		t.Fatal("leave of member 2")
	}
	if g.leave(3) {
		t.Fatal("the last member must not leave")
	}
	g.stageEvict(3)
	if got := g.takeEvictions(2); len(got) != 0 {
		t.Fatalf("the last member must not be evicted, got %v", got)
	}
}

func TestHeartbeatEviction(t *testing.T) {
	g := makeGroup(3)
	g.evictAfter = 2 // evict after 2 unseen epochs

	// At epoch 1, client 1 invokes and client 2 heartbeats; client 3
	// stays silent and counts from graceEpoch 0.
	g.epoch = 1
	g.noteActive(1)
	g.noteSeen(2)

	if got := g.expiredMembers(2); len(got) != 0 {
		t.Fatalf("no one expires within the horizon, got %v", got)
	}
	got := g.expiredMembers(3)
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("expired at epoch 3 = %v, want [3]", got)
	}
	if got := g.expiredMembers(4); len(got) != 3 {
		t.Fatalf("expired at epoch 4 = %v, want all three", got)
	}

	// A restart resets liveness to graceEpoch: nobody expires until the
	// grace horizon passes, even though lastSeen is empty.
	g2 := makeGroup(3)
	g2.evictAfter = 2
	g2.graceEpoch = 10
	if got := g2.expiredMembers(12); len(got) != 0 {
		t.Fatalf("grace period must hold at epoch 12, got %v", got)
	}
	if got := g2.expiredMembers(13); len(got) != 3 {
		t.Fatalf("grace period must lapse at epoch 13, got %v", got)
	}
}

// TestQFloorMonotone: removing the highest acknowledger (eviction,
// leave) must never regress the published stable value.
func TestQFloorMonotone(t *testing.T) {
	g := makeGroup(3)
	g.v[1].TA = 10
	g.v[2].TA = 8
	g.v[3].TA = 2
	q1 := g.stableQ() // majority-stable over {10,8,2} = 8
	if q1 != 8 {
		t.Fatalf("stableQ = %d, want 8", q1)
	}
	g.leave(2)
	if q2 := g.stableQ(); q2 < q1 {
		t.Fatalf("stableQ regressed from %d to %d after leave", q1, q2)
	}
}

// stable reports what a reply would publish without raising the floor:
// only the write path, whose record seals the floor, may raise it.
func TestStableDoesNotRaiseFloor(t *testing.T) {
	g := makeGroup(3)
	g.v[1].TA, g.v[2].TA = 5, 4
	if q := g.stable(); q != 4 || g.qFloor != 0 {
		t.Fatalf("stable = %d with floor %d, want 4 with floor 0", q, g.qFloor)
	}
	if q := g.stableQ(); q != 4 || g.qFloor != 4 {
		t.Fatalf("stableQ = %d with floor %d, want 4 with floor 4", q, g.qFloor)
	}
}

// BenchmarkMajorityStable is majority-stable(V) (Sec. 4.5), which every
// reply runs, over 2 to 10⁵ registered clients with distinct
// acknowledged sequence numbers. The paper's Figs. 5 and 6 plot
// throughput against the client count.
func BenchmarkMajorityStable(b *testing.B) {
	for _, n := range []int{2, 64, 1_000, 10_000, 100_000} {
		b.Run(fmt.Sprintf("clients=%d", n), func(b *testing.B) {
			g := makeGroup(n)
			for id, e := range g.v {
				e.TA = uint64(id) * 7919 % uint64(n)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g.v.majorityStable()
			}
		})
	}
}
