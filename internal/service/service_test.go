package service

import (
	"fmt"
	"testing"
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
// after the whole batch. Resolve and Pinned must consult them — otherwise
// a concurrent snapshot read of a key first touched by the in-flight
// batch would return the live, non-durable value (a dirty read).
func TestOverlayPinsOpenGeneration(t *testing.T) {
	var o Overlay[string]
	o.Close(0) // arm: a zero Overlay records nothing

	// Mid-batch: the batch overwrote k (pre-image v1) and created n.
	o.Record("k", "v1", true)
	o.Record("n", "", false)
	if v, ex, pin := o.Resolve("k"); !pin || !ex || v != "v1" {
		t.Fatalf("Resolve(k) mid-batch = %q, %v, %v; want v1 pinned", v, ex, pin)
	}
	if _, ex, pin := o.Resolve("n"); !pin || ex {
		t.Fatalf("Resolve(n) mid-batch: pinned=%v existed=%v; want pinned, absent", pin, ex)
	}
	// First-record-wins within the open generation too.
	o.Record("k", "v2", true)
	if v, _, _ := o.Resolve("k"); v != "v1" {
		t.Fatalf("second Record overwrote pre-image: %q", v)
	}
	pinned := make(map[string]bool)
	o.Pinned(func(k string, _ string, existed bool) bool {
		pinned[k] = existed
		return true
	})
	if len(pinned) != 2 || !pinned["k"] || pinned["n"] {
		t.Fatalf("Pinned mid-batch = %v; want k existed, n absent", pinned)
	}

	// A closed generation stays older than the open one: after Close, a
	// second batch's pre-image of k must not shadow the first's.
	o.Close(1)
	o.Record("k", "v5", true)
	if v, _, _ := o.Resolve("k"); v != "v1" {
		t.Fatalf("open generation shadowed closed one: %q, want v1", v)
	}
	// Advancing past the closed generation promotes the open one.
	o.Advance(1)
	if v, _, pin := o.Resolve("k"); !pin || v != "v5" {
		t.Fatalf("Resolve(k) after Advance(1) = %q pinned=%v; want v5 pinned", v, pin)
	}
	// Closing and advancing the second batch unpins everything.
	o.Close(2)
	o.Advance(2)
	if _, _, pin := o.Resolve("k"); pin {
		t.Fatal("Resolve(k) still pinned after all generations advanced")
	}
	o.Pinned(func(k string, _ string, _ bool) bool {
		t.Fatalf("Pinned reported %q after all generations advanced", k)
		return false
	})
}

// overlayHolds reports whether o pins anything: a Resolve of key, or any
// item Pinned visits.
func overlayHolds(o *Overlay[string], key string) bool {
	if _, _, pin := o.Resolve(key); pin {
		return true
	}
	held := false
	o.Pinned(func(string, string, bool) bool { held = true; return false })
	return held
}

// TestOverlayUnarmedRecordsNothing: a zero Overlay is un-armed, and its
// Record keeps no pre-image — a service whose reads are never armed holds
// no copy of what it overwrites.
func TestOverlayUnarmedRecordsNothing(t *testing.T) {
	var o Overlay[string]
	o.Record("k", "v1", true)
	o.Record("n", "", false)
	if overlayHolds(&o, "k") || overlayHolds(&o, "n") {
		t.Fatal("un-armed overlay holds a pre-image")
	}
	o.Advance(1)
	if overlayHolds(&o, "k") {
		t.Fatal("Advance armed the overlay")
	}
}

// TestOverlayFirstCloseArms: the first Close arms the overlay (and, with
// nothing recorded, closes an empty generation); Records after it pin.
func TestOverlayFirstCloseArms(t *testing.T) {
	var o Overlay[string]
	o.Record("k", "v0", true)
	o.Close(3)
	if overlayHolds(&o, "k") {
		t.Fatal("a Record before arming survived the arming Close")
	}
	o.Record("k", "v1", true)
	if v, ex, pin := o.Resolve("k"); !pin || !ex || v != "v1" {
		t.Fatalf("Resolve(k) after arming = %q, %v, %v; want v1 pinned", v, ex, pin)
	}
	o.Close(4)
	o.Advance(4)
	if overlayHolds(&o, "k") {
		t.Fatal("pre-image survived Advance past its generation")
	}
}

// TestOverlayResetKeepsArmed: Restore resets the overlay of a live
// instance that may already serve reads, so Reset must drop the
// generations but keep recording.
func TestOverlayResetKeepsArmed(t *testing.T) {
	var o Overlay[string]
	o.Close(0)
	o.Record("k", "v1", true)
	o.Close(1)
	o.Reset()
	if overlayHolds(&o, "k") {
		t.Fatal("Reset kept a generation")
	}
	o.Record("k", "v2", true)
	if v, _, pin := o.Resolve("k"); !pin || v != "v2" {
		t.Fatalf("Resolve(k) after Reset = %q pinned=%v; want v2 pinned", v, pin)
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
