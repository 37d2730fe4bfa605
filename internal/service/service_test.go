package service

import (
	"fmt"
	"testing"

	"lcm/internal/wire"
)

// stubSharder returns fixed keys per op byte.
type stubSharder map[byte][]string

func (s stubSharder) ShardKeys(op []byte) []string {
	if len(op) == 0 {
		return nil
	}
	return s[op[0]]
}

// TestOverlayPinsOpenGeneration: pre-images recorded by the
// currently-executing batch live in the open generation until Close runs
// after the whole batch. resolve and pinned must consult them — otherwise
// a concurrent snapshot read of a key first touched by the in-flight
// batch would return the live, non-durable value (a dirty read).
func TestOverlayPinsOpenGeneration(t *testing.T) {
	var o overlay[string]
	o.close(0) // arm: a zero overlay records nothing

	// Mid-batch: the batch overwrote k (pre-image v1) and created n.
	o.record("k", "v1", true)
	o.record("n", "", false)
	if v, ex, pin := o.resolve("k"); !pin || !ex || v != "v1" {
		t.Fatalf("Resolve(k) mid-batch = %q, %v, %v; want v1 pinned", v, ex, pin)
	}
	if _, ex, pin := o.resolve("n"); !pin || ex {
		t.Fatalf("Resolve(n) mid-batch: pinned=%v existed=%v; want pinned, absent", pin, ex)
	}
	// First-record-wins within the open generation too.
	o.record("k", "v2", true)
	if v, _, _ := o.resolve("k"); v != "v1" {
		t.Fatalf("second Record overwrote pre-image: %q", v)
	}
	pins := o.pins()
	if len(pins) != 2 || !pins["k"].existed || pins["n"].existed {
		t.Fatalf("pins mid-batch = %v; want k existed, n absent", pins)
	}

	// A closed generation stays older than the open one: after close, a
	// second batch's pre-image of k must not shadow the first's.
	o.close(1)
	o.record("k", "v5", true)
	if v, _, _ := o.resolve("k"); v != "v1" {
		t.Fatalf("open generation shadowed closed one: %q, want v1", v)
	}
	// Advancing past the closed generation promotes the open one.
	o.advance(1)
	if v, _, pin := o.resolve("k"); !pin || v != "v5" {
		t.Fatalf("Resolve(k) after Advance(1) = %q pinned=%v; want v5 pinned", v, pin)
	}
	// Closing and advancing the second batch unpins everything.
	o.close(2)
	o.advance(2)
	if _, _, pin := o.resolve("k"); pin {
		t.Fatal("Resolve(k) still pinned after all generations advanced")
	}
	if pins := o.pins(); len(pins) != 0 {
		t.Fatalf("pins = %v after all generations advanced", pins)
	}
}

// overlayHolds reports whether o pins anything: a resolve of key, or any
// item in pins.
func overlayHolds(o *overlay[string], key string) bool {
	_, _, pin := o.resolve(key)
	return pin || len(o.pins()) > 0
}

// TestOverlayUnarmedRecordsNothing: a zero overlay is un-armed, and its
// record keeps no pre-image — a service whose reads are never armed holds
// no copy of what it overwrites.
func TestOverlayUnarmedRecordsNothing(t *testing.T) {
	var o overlay[string]
	o.record("k", "v1", true)
	o.record("n", "", false)
	if overlayHolds(&o, "k") || overlayHolds(&o, "n") {
		t.Fatal("un-armed overlay holds a pre-image")
	}
	o.advance(1)
	if overlayHolds(&o, "k") {
		t.Fatal("advance armed the overlay")
	}
}

// TestOverlayFirstCloseArms: the first close arms the overlay (and, with
// nothing recorded, closes an empty generation); records after it pin.
func TestOverlayFirstCloseArms(t *testing.T) {
	var o overlay[string]
	o.record("k", "v0", true)
	o.close(3)
	if overlayHolds(&o, "k") {
		t.Fatal("a record before arming survived the arming close")
	}
	o.record("k", "v1", true)
	if v, ex, pin := o.resolve("k"); !pin || !ex || v != "v1" {
		t.Fatalf("Resolve(k) after arming = %q, %v, %v; want v1 pinned", v, ex, pin)
	}
	o.close(4)
	o.advance(4)
	if overlayHolds(&o, "k") {
		t.Fatal("pre-image survived advance past its generation")
	}
}

// TestOverlayResetKeepsArmed: Restore resets the overlay of a live
// instance that may already serve reads, so it must drop the generations
// but keep recording.
func TestOverlayResetKeepsArmed(t *testing.T) {
	k := NewKeyed(testCodec)
	k.EndBatch(0)
	k.Set("k", 1)
	k.EndBatch(1)
	var w wire.Writer
	k.Snapshot(&w)
	if k.Restore(wire.NewReader(w.Bytes())); k.PreImages() != 0 {
		t.Fatal("Restore kept a generation")
	}
	k.Set("k", 2)
	if v, ok := k.ReadDurable("k"); k.PreImages() != 1 || !ok || v != 1 {
		t.Fatalf("ReadDurable(k) after Restore = %d, %v; want the restored 1 pinned", v, ok)
	}
}

func TestShardIndexStableAndInRange(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 256} {
		for i := 0; i < 100; i++ {
			key := fmt.Sprintf("key-%d", i)
			idx := ShardIndex(key, n)
			if idx < 0 || idx >= n {
				t.Fatalf("ShardIndex(%q, %d) = %d out of range", key, n, idx)
			}
			if again := ShardIndex(key, n); again != idx {
				t.Fatalf("ShardIndex(%q, %d) unstable: %d then %d", key, n, idx, again)
			}
		}
	}
	if ShardIndex("anything", 1) != 0 {
		t.Fatal("single shard must map everything to 0")
	}
}

func TestShardIndexSpreadsKeys(t *testing.T) {
	const n = 4
	seen := make(map[int]bool)
	for i := 0; i < 200; i++ {
		seen[ShardIndex(fmt.Sprintf("key-%d", i), n)] = true
	}
	if len(seen) != n {
		t.Fatalf("200 keys landed on only %d of %d shards", len(seen), n)
	}
}

func TestShardOf(t *testing.T) {
	// Two keys known to land on different shards under n=2.
	a, b := "", ""
	for i := 0; a == "" || b == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		if ShardIndex(k, 2) == 0 && a == "" {
			a = k
		}
		if ShardIndex(k, 2) == 1 && b == "" {
			b = k
		}
	}
	s := stubSharder{
		1: {a},
		2: {a, a}, // same shard twice
		3: {a, b}, // cross-shard
		4: nil,    // unshardable
	}
	if shard, err := ShardOf(s, []byte{1}, 2); err != nil || shard != 0 {
		t.Fatalf("single key: %d, %v", shard, err)
	}
	if _, err := ShardOf(s, []byte{2}, 2); err != nil {
		t.Fatalf("same-shard multi-key rejected: %v", err)
	}
	if _, err := ShardOf(s, []byte{3}, 2); err == nil {
		t.Fatal("cross-shard op accepted")
	}
	if _, err := ShardOf(s, []byte{4}, 2); err == nil {
		t.Fatal("unshardable op accepted")
	}
	// Single-shard deployments accept everything without consulting keys.
	if shard, err := ShardOf(s, []byte{4}, 1); err != nil || shard != 0 {
		t.Fatalf("unshardable op under one shard: %d, %v", shard, err)
	}
}
