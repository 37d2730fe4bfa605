package kvs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func deltaOf(t *testing.T, s *Store) []byte {
	t.Helper()
	d, err := s.Delta()
	if err != nil {
		t.Fatalf("Delta: %v", err)
	}
	return d
}

func TestDeltaCapturesOnlyDirtyKeys(t *testing.T) {
	live := New()
	mustApply(t, live, Put("a", "1"))
	mustApply(t, live, Put("b", "2"))

	replica := New()
	if err := replica.ApplyDelta(deltaOf(t, live)); err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}

	// Only the keys touched after the last Delta appear in the next one.
	mustApply(t, live, Put("b", "2x"))
	mustApply(t, live, Del("a"))
	mustApply(t, live, Get("b")) // reads do not dirty
	d := deltaOf(t, live)
	if err := replica.ApplyDelta(d); err != nil {
		t.Fatalf("ApplyDelta 2: %v", err)
	}

	ls, _ := live.Snapshot()
	rs, _ := replica.Snapshot()
	if !bytes.Equal(ls, rs) {
		t.Fatalf("replica diverged:\nlive    %x\nreplica %x", ls, rs)
	}
	if live.Footprint() != replica.Footprint() {
		t.Fatalf("footprints diverged: %d vs %d", live.Footprint(), replica.Footprint())
	}

	// With nothing dirty the delta is nil, and applying it is a no-op.
	d = deltaOf(t, live)
	if err := replica.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Fatalf("idle delta = %d bytes, want nil", len(d))
	}
}

func TestDeltaPutThenDelEncodesDelete(t *testing.T) {
	live := New()
	mustApply(t, live, Put("k", "v"))
	mustApply(t, live, Del("k"))
	replica := New()
	if err := replica.ApplyDelta(deltaOf(t, live)); err != nil {
		t.Fatal(err)
	}
	if replica.Len() != 0 {
		t.Fatalf("replica has %d entries, want 0", replica.Len())
	}
}

func TestSnapshotResetsDirtyTracking(t *testing.T) {
	live := New()
	mustApply(t, live, Put("k", "v"))
	if _, err := live.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// The snapshot captured the change; the next delta must be empty.
	if d := deltaOf(t, live); d != nil {
		t.Fatalf("delta after snapshot = %d bytes, want nil", len(d))
	}
}

func TestApplyDeltaRejectsGarbage(t *testing.T) {
	s := New()
	if err := s.ApplyDelta([]byte{0, 0, 0, 1, 99, 0, 0, 0, 1, 'k'}); err == nil {
		t.Fatal("unknown change kind accepted")
	}
	if err := s.ApplyDelta([]byte{0, 0, 0, 2, 1}); err == nil {
		t.Fatal("truncated delta accepted")
	}
}

// Property: for random operation sequences, folding the periodic deltas
// onto the last snapshot always reproduces the live state — the invariant
// the enclave's incremental sealed persistence depends on.
func TestQuickDeltaFoldEquivalence(t *testing.T) {
	check := func(seed int64, schedule []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		live := New()
		replica := New()
		for i, step := range schedule {
			key := fmt.Sprintf("k%d", rng.Intn(8))
			switch step % 3 {
			case 0:
				mustApply(t, live, Put(key, fmt.Sprintf("v%d", i)))
			case 1:
				mustApply(t, live, Del(key))
			case 2:
				mustApply(t, live, Get(key))
			}
			// Take a delta at random batch boundaries.
			if rng.Intn(3) == 0 {
				if err := replica.ApplyDelta(deltaOf(t, live)); err != nil {
					t.Logf("ApplyDelta: %v", err)
					return false
				}
			}
			// And occasionally rebase the replica from a full snapshot,
			// as compaction does.
			if rng.Intn(10) == 0 {
				snap, err := live.Snapshot()
				if err != nil {
					return false
				}
				if err := replica.Restore(snap); err != nil {
					return false
				}
			}
		}
		if err := replica.ApplyDelta(deltaOf(t, live)); err != nil {
			return false
		}
		ls, _ := live.Snapshot()
		rs, _ := replica.Snapshot()
		return bytes.Equal(ls, rs) && live.Footprint() == replica.Footprint()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
