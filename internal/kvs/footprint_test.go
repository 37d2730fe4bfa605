package kvs

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// footprintFromScratch is the Sec. 6.2 model summed over every entry.
func footprintFromScratch(s *Store) int64 {
	var total int64
	for k, v := range s.kv.Range("") {
		total += int64(len(k)+len(v))*234/100 + 48
	}
	return total
}

// The running footprint equals a from-scratch sum after every step of
// seeded schedules of puts, deletes, restores, merges and delta folds,
// on the live store and on a follower that folds its deltas.
func TestQuickFootprintMatchesRecount(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live, follower := New(), New()
		for step := 0; step < 200; step++ {
			var did string
			switch n := rng.Intn(10); {
			case n < 4:
				key := fmt.Sprintf("k%d", rng.Intn(30))
				mustApply(t, live, Put(key, strings.Repeat("v", rng.Intn(300))))
				did = "put " + key
			case n < 6:
				key := fmt.Sprintf("k%d", rng.Intn(30))
				mustApply(t, live, Del(key))
				did = "del " + key
			case n < 7:
				snap := snapshotOf(t, live)
				live = New()
				if err := live.Restore(snap); err != nil {
					t.Fatal(err)
				}
				follower = New()
				if err := follower.Restore(snap); err != nil {
					t.Fatal(err)
				}
				did = "restore"
			case n < 8:
				other := New()
				for i := 0; i < rng.Intn(5); i++ {
					mustApply(t, other, Put(fmt.Sprintf("m%d-%d", step, i), strings.Repeat("w", rng.Intn(50))))
				}
				frags, err := other.PartitionState(1 + rng.Intn(3))
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range []*Store{live, follower} {
					if err := s.MergeState(frags); err != nil {
						t.Fatal(err)
					}
				}
				did = "merge"
			default:
				if err := follower.ApplyDelta(deltaOf(t, live)); err != nil {
					t.Fatal(err)
				}
				did = "fold"
			}
			for name, s := range map[string]*Store{"live": live, "follower": follower} {
				if got, want := s.Footprint(), footprintFromScratch(s); got != want {
					t.Fatalf("seed %d step %d (%s): %s footprint %d, recount %d", seed, step, did, name, got, want)
				}
			}
		}
	}
}
