package replication

import (
	"crypto/sha256"
	"errors"
	"sync/atomic"
	"testing"

	"lcm/internal/stablestore"
)

// gatedStore is a peer's storage whose next mirror append can be parked:
// the append announces itself on entered and waits for release.
type gatedStore struct {
	*stablestore.MemStore
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func newGatedStore() *gatedStore {
	return &gatedStore{MemStore: stablestore.NewMemStore(), entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedStore) AppendGroup(slot string, records [][]byte) error {
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.MemStore.AppendGroup(slot, records)
}

// ReplicateGroup returns at quorum while a stalled peer is still
// appending; the straggler keeps the set until it is done, so the next
// barrier call waits for it and then finds every peer at the same head.
func TestSetQuorumReleasesBeforeStraggler(t *testing.T) {
	fast, slow := newGatedStore(), newGatedStore()
	set, _ := setRigOver(t, 2, []stablestore.Store{fast, slow}) // 3 copies, quorum 2 → 1 peer ack
	base := sha256.Sum256([]byte("base"))
	set.Rebase(base)
	if err := set.ReplicateGroup([][]byte{[]byte("r1")}); err != nil {
		t.Fatal(err)
	}
	set.Head() // any other method: waits until both peers hold r1

	slow.armed.Store(true)
	if err := set.ReplicateGroup([][]byte{[]byte("r2"), []byte("r3")}); err != nil {
		t.Fatalf("replicate with one stalled peer: %v", err)
	}
	<-slow.entered // the straggler is inside its mirror append
	if set.mu.TryLock() {
		t.Fatal("set lock is free while a straggler is still appending")
	}
	type barrier struct {
		statuses      []PeerStatus
		stragglerDone bool
	}
	var stragglerDone atomic.Bool
	started, finished := make(chan struct{}), make(chan barrier, 1)
	go func() {
		close(started)
		statuses := set.PeerStatuses()
		finished <- barrier{statuses, stragglerDone.Load()}
	}()
	<-started
	stragglerDone.Store(true)
	close(slow.release)
	got := <-finished
	if !got.stragglerDone {
		t.Fatal("barrier call returned before the straggler was released")
	}
	for i, st := range got.statuses {
		if st.Count != 3 || st.Head != set.Head() {
			t.Fatalf("peer %d after the straggler drained = %+v, want 3 records at the set head", i, st)
		}
	}
	// Per-peer order held: the next group lands on both without a resync.
	if err := set.ReplicateGroup([][]byte{[]byte("r4")}); err != nil {
		t.Fatal(err)
	}
	for i, st := range set.PeerStatuses() {
		if st.Count != 4 || st.Head != set.Head() {
			t.Fatalf("peer %d = %+v, want 4 records at the set head", i, st)
		}
	}
}

// ErrQuorum comes back as soon as quorum-1 acknowledgements are out of
// reach — here with quorum 3 of 3, the moment the dead peer fails, while
// the other one is still stalled in its append.
func TestSetQuorumUnreachableFailsEarly(t *testing.T) {
	dead, slow := newGatedStore(), newGatedStore()
	set, peers := setRigOver(t, 3, []stablestore.Store{dead, slow})
	set.Rebase(sha256.Sum256([]byte("base")))
	if err := set.ReplicateGroup([][]byte{[]byte("r1")}); err != nil {
		t.Fatal(err)
	}

	peers[0].Stop()
	slow.armed.Store(true)
	if err := set.ReplicateGroup([][]byte{[]byte("r2")}); !errors.Is(err, ErrQuorum) {
		t.Fatalf("replicate with a dead and a stalled peer: %v, want ErrQuorum", err)
	}
	<-slow.entered
	close(slow.release)
	// The group still reached the live peer, in order.
	if st := set.PeerStatuses()[1]; st.Count != 2 || st.Head != set.Head() {
		t.Fatalf("live peer = %+v, want 2 records at the set head", st)
	}
}
