package counter

import (
	"fmt"
	"math/rand"
	"testing"
)

// footprintFromScratch charges every account and transaction record its
// key, its fields and 48 bytes of map structure.
func footprintFromScratch(b *Bank) int64 {
	var total int64
	for n := range b.accounts.Range("") {
		total += int64(len(n)) + 8 + 48
	}
	for k, rec := range b.txs.Range("") {
		total += int64(len(k)+len(rec.Account)) + 17 + 48
	}
	return total
}

// The running footprint equals a from-scratch sum after every step of
// seeded schedules of increments, transfers, escrow phases, epoch stamps
// and prunes, restores, merges and delta folds, on the live bank and on a
// follower that folds its deltas.
func TestQuickFootprintMatchesRecount(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live, follower := New(), New()
		epoch := uint64(0)
		account := func() string { return fmt.Sprintf("acct-%d", rng.Intn(8)) }
		id := func() string { return fmt.Sprintf("tx-%d", rng.Intn(12)) }
		for step := 0; step < 300; step++ {
			var op []byte
			switch n := rng.Intn(14); {
			case n < 3:
				op = Inc(account(), int64(rng.Intn(100)))
			case n < 4:
				op = Transfer(account(), account(), int64(rng.Intn(50)))
			case n < 5:
				op = Prepare(id(), account(), int64(rng.Intn(50)))
			case n < 6:
				op = Credit(id(), account(), int64(rng.Intn(50)))
			case n < 7:
				op = Settle(id(), account())
			case n < 8:
				op = Abort(id(), account())
			case n < 10:
				epoch++
				live.AdvanceEpoch(epoch)
			case n < 11:
				snap := snapshotOf(t, live)
				live, follower = restored(t, snap), restored(t, snap)
			case n < 12:
				other := New()
				mustApply(t, other, Inc(fmt.Sprintf("m%d", step), 10))
				mustApply(t, other, Prepare(fmt.Sprintf("mt%d", step), fmt.Sprintf("m%d", step), 3))
				frags, err := other.PartitionState(1 + rng.Intn(3))
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range []*Bank{live, follower} {
					if err := b.MergeState(frags); err != nil {
						t.Fatal(err)
					}
				}
			default:
				d, err := live.Delta()
				if err != nil {
					t.Fatal(err)
				}
				if err := follower.ApplyDelta(d); err != nil {
					t.Fatal(err)
				}
			}
			if op != nil {
				if _, err := live.Apply(op); err != nil {
					t.Fatal(err)
				}
			}
			for name, b := range map[string]*Bank{"live": live, "follower": follower} {
				if got, want := b.Footprint(), footprintFromScratch(b); got != want {
					t.Fatalf("seed %d step %d: %s footprint %d, recount %d", seed, step, name, got, want)
				}
			}
		}
	}
}
