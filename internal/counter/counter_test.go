package counter

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

func mustApply(t *testing.T, b *Bank, op []byte) Result {
	t.Helper()
	raw, err := b.Apply(op)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	res, err := DecodeResult(raw)
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	return res
}

func TestIncAndRead(t *testing.T) {
	b := New()
	if res := mustApply(t, b, Read("alice")); res.Balance != 0 {
		t.Fatalf("fresh account balance = %d", res.Balance)
	}
	if res := mustApply(t, b, Inc("alice", 100)); res.Balance != 100 {
		t.Fatalf("balance after +100 = %d", res.Balance)
	}
	if res := mustApply(t, b, Inc("alice", -30)); res.Balance != 70 {
		t.Fatalf("balance after -30 = %d", res.Balance)
	}
	if res := mustApply(t, b, Read("alice")); res.Balance != 70 {
		t.Fatalf("read = %d, want 70", res.Balance)
	}
}

func TestTransfer(t *testing.T) {
	b := New()
	mustApply(t, b, Inc("alice", 100))

	res := mustApply(t, b, Transfer("alice", "bob", 60))
	if !res.OK || res.Balance != 40 {
		t.Fatalf("transfer = %+v", res)
	}
	if res := mustApply(t, b, Read("bob")); res.Balance != 60 {
		t.Fatalf("bob = %d, want 60", res.Balance)
	}

	// Insufficient funds rejected without a state change.
	res = mustApply(t, b, Transfer("alice", "bob", 50))
	if res.OK {
		t.Fatal("overdraft transfer accepted")
	}
	if res := mustApply(t, b, Read("alice")); res.Balance != 40 {
		t.Fatalf("alice after rejected transfer = %d, want 40", res.Balance)
	}

	// Negative amounts rejected.
	if res := mustApply(t, b, Transfer("bob", "alice", -5)); res.OK {
		t.Fatal("negative transfer accepted")
	}
}

func TestMalformedOps(t *testing.T) {
	b := New()
	for i, op := range [][]byte{nil, {}, {0xEE}, Read("x")[:2], append(Inc("x", 1), 7)} {
		if _, err := b.Apply(op); !errors.Is(err, ErrMalformedOp) {
			t.Fatalf("case %d: Apply = %v, want ErrMalformedOp", i, err)
		}
	}
}

func TestSnapshotRestore(t *testing.T) {
	b := New()
	mustApply(t, b, Inc("alice", 10))
	mustApply(t, b, Inc("bob", 20))
	mustApply(t, b, Transfer("bob", "carol", 5))

	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alice", "bob", "carol"} {
		want := mustApply(t, b, Read(name)).Balance
		got := mustApply(t, r, Read(name)).Balance
		if got != want {
			t.Fatalf("%s = %d after restore, want %d", name, got, want)
		}
	}
	snap2, _ := r.Snapshot()
	if !bytes.Equal(snap, snap2) {
		t.Fatal("snapshot not stable across restore")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if err := New().Restore([]byte{1, 2, 3}); err == nil {
		t.Fatal("Restore accepted garbage")
	}
}

func TestFootprintGrowsWithAccounts(t *testing.T) {
	b := New()
	if b.Footprint() != 0 {
		t.Fatal("empty footprint nonzero")
	}
	mustApply(t, b, Inc("alice", 1))
	one := b.Footprint()
	if one <= 0 {
		t.Fatal("footprint not positive after insert")
	}
	mustApply(t, b, Inc("bob", 1))
	if b.Footprint() <= one {
		t.Fatal("footprint did not grow with second account")
	}
}

// Property: total money is conserved by any sequence of transfers.
func TestQuickTransfersConserveTotal(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	check := func(seed []uint8) bool {
		b := New()
		for _, n := range names {
			if _, err := b.Apply(Inc(n, 1000)); err != nil {
				return false
			}
		}
		for i := 0; i+2 < len(seed); i += 3 {
			from := names[int(seed[i])%len(names)]
			to := names[int(seed[i+1])%len(names)]
			if _, err := b.Apply(Transfer(from, to, int64(seed[i+2]))); err != nil {
				return false
			}
		}
		var total int64
		for _, n := range names {
			raw, err := b.Apply(Read(n))
			if err != nil {
				return false
			}
			res, err := DecodeResult(raw)
			if err != nil {
				return false
			}
			if res.Balance < 0 {
				return false // no overdrafts ever
			}
			total += res.Balance
		}
		return total == int64(len(names))*1000
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Delta serializes only the touched accounts, folds back exactly, and
// resets the tracking — the DeltaService contract.
func TestDeltaTracksTouchedAccounts(t *testing.T) {
	b := New()
	mustApply(t, b, Inc("alice", 100))
	mustApply(t, b, Inc("bob", 50))
	if _, err := b.Snapshot(); err != nil { // baseline: clears the dirty set
		t.Fatal(err)
	}

	d, err := b.Delta()
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 0 { // no change: a nil delta, as kvs's
		t.Fatalf("delta after snapshot = %d bytes, want empty", len(d))
	}

	mustApply(t, b, Transfer("alice", "bob", 25))
	mustApply(t, b, Inc("carol", 7))
	// A rejected transfer must not dirty anything.
	if res := mustApply(t, b, Transfer("carol", "alice", 1000)); res.OK {
		t.Fatal("overdraft accepted")
	}
	d, err = b.Delta()
	if err != nil {
		t.Fatal(err)
	}

	// Fold the delta onto an old snapshot: the three touched balances move,
	// nothing else.
	old := New()
	mustApply(t, old, Inc("alice", 100))
	mustApply(t, old, Inc("bob", 50))
	if err := old.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]int64{"alice": 75, "bob": 75, "carol": 7} {
		if got := mustApply(t, old, Read(name)).Balance; got != want {
			t.Fatalf("%s after delta fold = %d, want %d", name, got, want)
		}
	}

	// Delta cleared its tracking: the next one is empty again.
	d2, _ := b.Delta()
	if len(d2) != 0 {
		t.Fatalf("second delta = %d bytes, want empty", len(d2))
	}
}

func TestApplyDeltaRejectsGarbage(t *testing.T) {
	if err := New().ApplyDelta([]byte{1, 2, 3}); err == nil {
		t.Fatal("ApplyDelta accepted garbage")
	}
}

// Property: folding every delta taken since a snapshot onto that snapshot
// yields the live state — under random inc/transfer schedules with deltas
// cut at random points.
func TestQuickDeltaFoldMatchesLive(t *testing.T) {
	names := []string{"a", "b", "c"}
	check := func(seed []uint8) bool {
		live := New()
		base := New()
		for _, n := range names {
			if _, err := live.Apply(Inc(n, 500)); err != nil {
				return false
			}
			if _, err := base.Apply(Inc(n, 500)); err != nil {
				return false
			}
		}
		if _, err := live.Snapshot(); err != nil {
			return false
		}
		for i := 0; i+2 < len(seed); i += 3 {
			from := names[int(seed[i])%len(names)]
			to := names[int(seed[i+1])%len(names)]
			var op []byte
			if seed[i]%2 == 0 {
				op = Inc(from, int64(seed[i+2])-128)
			} else {
				op = Transfer(from, to, int64(seed[i+2]))
			}
			if _, err := live.Apply(op); err != nil {
				return false
			}
			if seed[i+2]%4 == 0 {
				d, err := live.Delta()
				if err != nil {
					return false
				}
				if err := base.ApplyDelta(d); err != nil {
					return false
				}
			}
		}
		d, err := live.Delta()
		if err != nil {
			return false
		}
		if err := base.ApplyDelta(d); err != nil {
			return false
		}
		liveSnap, err := live.Snapshot()
		if err != nil {
			return false
		}
		baseSnap, err := base.Snapshot()
		if err != nil {
			return false
		}
		return bytes.Equal(liveSnap, baseSnap)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestManyAccounts(t *testing.T) {
	b := New()
	for i := 0; i < 500; i++ {
		mustApply(t, b, Inc(fmt.Sprintf("acct-%d", i), int64(i)))
	}
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r := New()
	if err := r.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := mustApply(t, r, Read("acct-499")).Balance; got != 499 {
		t.Fatalf("acct-499 = %d", got)
	}
}

func TestShardKeys(t *testing.T) {
	if keys := New().ShardKeys(Inc("alice", 1)); len(keys) != 1 || keys[0] != "alice" {
		t.Fatalf("inc keys = %v", keys)
	}
	if keys := New().ShardKeys(Read("bob")); len(keys) != 1 || keys[0] != "bob" {
		t.Fatalf("read keys = %v", keys)
	}
	keys := New().ShardKeys(Transfer("alice", "bob", 5))
	if len(keys) != 2 || keys[0] != "alice" || keys[1] != "bob" {
		t.Fatalf("transfer keys = %v", keys)
	}
	if keys := New().ShardKeys([]byte{0xEE}); keys != nil {
		t.Fatalf("unknown op must be unshardable, got %v", keys)
	}
}

// ---- Epoch-fenced pruning of settled escrow records ----

// TestEpochStampAndPrune walks a terminal record through the prune
// lifecycle: unstamped at first, stamped at the first epoch seal that
// observes it terminal, pruned PruneHorizonEpochs seals later — while
// escrowed (in-flight) records survive every seal and the conservation
// invariant Σ balances + Σ escrow holds throughout.
func TestEpochStampAndPrune(t *testing.T) {
	b := New()
	mustApply(t, b, Inc("src", 1000))
	// t1 settles (src record settled, dst record credited), t2 aborts,
	// t3 stays in flight.
	mustApply(t, b, Prepare("t1", "src", 100))
	mustApply(t, b, Credit("t1", "dst", 100))
	mustApply(t, b, Settle("t1", "src"))
	mustApply(t, b, Prepare("t2", "src", 50))
	mustApply(t, b, Abort("t2", "src"))
	mustApply(t, b, Prepare("t3", "src", 25))

	want := b.TotalBalance() + b.EscrowTotal()

	b.AdvanceEpoch(1) // stamps the three terminal records
	if got := b.txs.Len(); got != 4 {
		t.Fatalf("records after stamping seal = %d, want 4", got)
	}
	b.AdvanceEpoch(2) // within the horizon: nothing pruned
	if got := b.txs.Len(); got != 4 {
		t.Fatalf("records one epoch after stamp = %d, want 4", got)
	}
	b.AdvanceEpoch(3) // stamp+PruneHorizonEpochs reached: terminals prune
	if got := b.txs.Len(); got != 1 {
		t.Fatalf("records after prune = %d, want only the escrowed one", got)
	}
	if rec, ok := b.txs.Get(srcKey("t3")); !ok || rec.State != txEscrowed {
		t.Fatalf("escrowed record must survive pruning, got %+v (present=%v)", rec, ok)
	}
	if got := b.TotalBalance() + b.EscrowTotal(); got != want {
		t.Fatalf("conservation across prune: total = %d, want %d", got, want)
	}
	// A replayed settle for the pruned id lands past the retry horizon:
	// fenced out as unknown, never re-executed.
	if res := mustApply(t, b, Settle("t1", "src")); res.Code != StatusUnknown {
		t.Fatalf("settle after prune: code %d, want StatusUnknown", res.Code)
	}
	// The surviving escrow still resolves normally and conserves.
	if res := mustApply(t, b, Abort("t3", "src")); res.Code != StatusOK {
		t.Fatalf("abort of surviving escrow: code %d", res.Code)
	}
	if got := b.TotalBalance() + b.EscrowTotal(); got != want {
		t.Fatalf("conservation after late abort: total = %d, want %d", got, want)
	}
}

// TestPruneAdjacentRecords prunes, in one seal, terminal records that
// sit next to each other in key order, between an escrowed one and a
// fresh one: the seal walks the records in order, so a prune that shifted
// the walk would skip a neighbour. A restart from the snapshot taken
// before the seals, folding their deltas, reaches the same state.
func TestPruneAdjacentRecords(t *testing.T) {
	live := New()
	mustApply(t, live, Inc("src", 100))
	mustApply(t, live, Prepare("a", "src", 1)) // stays escrowed
	for _, id := range []string{"b1", "b2", "b3", "b4"} {
		mustApply(t, live, Prepare(id, "src", 1))
		mustApply(t, live, Abort(id, "src"))
	}
	snap, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var deltas [][]byte
	for _, epoch := range []uint64{1, 3} { // stamp, then prune
		live.AdvanceEpoch(epoch)
		if epoch == 1 {
			mustApply(t, live, Prepare("c", "src", 1)) // unstamped at the prune
			mustApply(t, live, Abort("c", "src"))
		}
		d, err := live.Delta()
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, d)
	}
	var left []string
	for key := range live.txs.Range("") {
		left = append(left, key)
	}
	if want := []string{srcKey("a"), srcKey("c")}; fmt.Sprint(left) != fmt.Sprint(want) {
		t.Fatalf("records after the prune = %q, want %q", left, want)
	}
	restarted := New()
	if err := restarted.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for _, d := range deltas {
		if err := restarted.ApplyDelta(d); err != nil {
			t.Fatal(err)
		}
	}
	sLive, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sFold, err := restarted.Snapshot(); err != nil || !bytes.Equal(sLive, sFold) {
		t.Fatalf("restart and fold diverge from live after the prune (%v):\nlive %x\nfold %x", err, sLive, sFold)
	}
}

// TestDeltaFoldAcrossPrune folds every delta — including the epoch
// seals' stamp updates and prune tombstones — onto a follower bank and
// checks the folded state stays byte-identical to the live one.
func TestDeltaFoldAcrossPrune(t *testing.T) {
	live := New()
	fold := New()
	step := func() {
		t.Helper()
		d, err := live.Delta()
		if err != nil {
			t.Fatalf("Delta: %v", err)
		}
		if err := fold.ApplyDelta(d); err != nil {
			t.Fatalf("ApplyDelta: %v", err)
		}
	}
	mustApply(t, live, Inc("src", 500))
	step()
	mustApply(t, live, Prepare("a", "src", 40))
	mustApply(t, live, Credit("a", "dst", 40))
	mustApply(t, live, Settle("a", "src"))
	step()
	live.AdvanceEpoch(1) // stamps land in this delta
	step()
	live.AdvanceEpoch(3) // tombstones land in this delta
	step()
	if got := live.txs.Len(); got != 0 {
		t.Fatalf("live records after prune = %d, want 0", got)
	}
	sLive, err := live.Snapshot()
	if err != nil {
		t.Fatalf("live snapshot: %v", err)
	}
	sFold, err := fold.Snapshot()
	if err != nil {
		t.Fatalf("fold snapshot: %v", err)
	}
	if !bytes.Equal(sLive, sFold) {
		t.Fatalf("folded state diverges from live after prune:\nlive %x\nfold %x", sLive, sFold)
	}
}

// TestPruneTombstoneNetsAgainstRecreation covers the delta-netting edge:
// a record pruned and then re-created inside the same delta window (a
// late abort arriving after its predecessor's tombstone pruned) must be
// described by the assignment alone — the tombstone would otherwise
// delete the fresh record on the follower.
func TestPruneTombstoneNetsAgainstRecreation(t *testing.T) {
	live := New()
	fold := New()
	step := func() {
		t.Helper()
		d, err := live.Delta()
		if err != nil {
			t.Fatalf("Delta: %v", err)
		}
		if err := fold.ApplyDelta(d); err != nil {
			t.Fatalf("ApplyDelta: %v", err)
		}
	}
	mustApply(t, live, Inc("src", 100))
	mustApply(t, live, Prepare("x", "src", 10))
	mustApply(t, live, Abort("x", "src"))
	step()
	live.AdvanceEpoch(1)
	step()
	live.AdvanceEpoch(3) // prunes x's aborted record...
	// ...and a duplicate late abort for x re-creates its tombstone record
	// before the window closes.
	if res := mustApply(t, live, Abort("x", "src")); res.Code != StatusOK {
		t.Fatalf("late abort: code %d", res.Code)
	}
	step()
	if rec, ok := live.txs.Get(srcKey("x")); !ok || rec.State != txAborted {
		t.Fatalf("recreated tombstone record missing, got %+v (present=%v)", rec, ok)
	}
	sLive, err := live.Snapshot()
	if err != nil {
		t.Fatalf("live snapshot: %v", err)
	}
	sFold, err := fold.Snapshot()
	if err != nil {
		t.Fatalf("fold snapshot: %v", err)
	}
	if !bytes.Equal(sLive, sFold) {
		t.Fatalf("folded state diverges after prune+recreate:\nlive %x\nfold %x", sLive, sFold)
	}
}

// TestSnapshotReadEscrowTotalAcrossPrune pins a snapshot reader at a
// durable point where an escrow is in flight, then settles and prunes
// the record past the reader: the snapshot-read escrow total must still
// count the pruned record's pre-image (overlay coverage), and drop to
// zero once the prune itself is durable.
func TestSnapshotReadEscrowTotalAcrossPrune(t *testing.T) {
	b := New()
	mustApply(t, b, Inc("src", 100))
	mustApply(t, b, Prepare("p", "src", 30))
	b.EndBatch(1)
	b.AdvanceDurable(1) // durable snapshot: escrow = 30

	readEscrow := func() int64 {
		t.Helper()
		raw, err := b.SnapshotRead(EscrowTotalOp())
		if err != nil {
			t.Fatalf("SnapshotRead: %v", err)
		}
		res, err := DecodeResult(raw)
		if err != nil {
			t.Fatalf("DecodeResult: %v", err)
		}
		return res.Balance
	}

	// Settle and prune after the durable point: the record leaves the
	// live map entirely, but a reader at the durable snapshot must still
	// see the escrowed 30.
	mustApply(t, b, Settle("p", "src"))
	mustApply(t, b, Credit("p", "dst", 30))
	b.AdvanceEpoch(1)
	b.AdvanceEpoch(3)
	if _, live := b.txs.Get(srcKey("p")); live {
		t.Fatal("record p should have pruned")
	}
	if got := readEscrow(); got != 30 {
		t.Fatalf("snapshot escrow total across prune = %d, want 30", got)
	}
	if got := b.EscrowTotal(); got != 0 {
		t.Fatalf("live escrow total = %d, want 0", got)
	}

	// Once the settle+prune is durable the snapshot view catches up.
	b.EndBatch(2)
	b.AdvanceDurable(2)
	if got := readEscrow(); got != 0 {
		t.Fatalf("snapshot escrow total after durable prune = %d, want 0", got)
	}
}

// TestRestoreOverwriteOverlay restores a snapshot, then overwrites every
// account and escrow record. A bank whose snapshot reads were never armed
// keeps no pre-image of what it overwrote; an armed one (Restore keeps it
// armed) keeps one per written item until AdvanceDurable retires them.
func TestRestoreOverwriteOverlay(t *testing.T) {
	const n = 8
	src := New()
	for i := 0; i < n; i++ {
		mustApply(t, src, Inc(fmt.Sprintf("acct-%d", i), 100))
		mustApply(t, src, Prepare(fmt.Sprintf("p-%d", i), fmt.Sprintf("acct-%d", i), 10))
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	pinned := func(b *Bank) (accts, txs int) {
		return b.accounts.PreImages(), b.txs.PreImages()
	}
	for _, armed := range []bool{false, true} {
		t.Run(fmt.Sprintf("armed=%v", armed), func(t *testing.T) {
			b := New()
			if armed {
				b.EndBatch(0)
			}
			if err := b.Restore(snap); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				mustApply(t, b, Inc(fmt.Sprintf("acct-%d", i), 1))
				mustApply(t, b, Settle(fmt.Sprintf("p-%d", i), fmt.Sprintf("acct-%d", i)))
			}
			want := 0
			if armed {
				want = n
			}
			if a, x := pinned(b); a != want || x != want {
				t.Fatalf("pre-images after overwrite: %d accounts, %d records; want %d each", a, x, want)
			}
			b.EndBatch(1)
			b.AdvanceDurable(1)
			if a, x := pinned(b); a != 0 || x != 0 {
				t.Fatalf("pre-images after AdvanceDurable: %d accounts, %d records; want none", a, x)
			}
		})
	}
}
