package kvs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
)

func mustApply(t *testing.T, s *Store, op []byte) Result {
	t.Helper()
	raw, err := s.Apply(op)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	res, err := DecodeResult(raw)
	if err != nil {
		t.Fatalf("DecodeResult: %v", err)
	}
	return res
}

func TestPutGetDel(t *testing.T) {
	s := New()

	if res := mustApply(t, s, Get("missing")); res.Found {
		t.Fatal("GET of missing key reported found")
	}

	if res := mustApply(t, s, Put("k", "v1")); !res.Found {
		t.Fatal("PUT not acknowledged")
	}
	if res := mustApply(t, s, Get("k")); !res.Found || string(res.Value) != "v1" {
		t.Fatalf("GET = %+v, want v1", res)
	}

	// Overwrite.
	mustApply(t, s, Put("k", "v2"))
	if res := mustApply(t, s, Get("k")); string(res.Value) != "v2" {
		t.Fatalf("GET after overwrite = %q", res.Value)
	}

	if res := mustApply(t, s, Del("k")); !res.Found {
		t.Fatal("DEL of existing key reported not found")
	}
	if res := mustApply(t, s, Get("k")); res.Found {
		t.Fatal("GET after DEL reported found")
	}
	if res := mustApply(t, s, Del("k")); res.Found {
		t.Fatal("DEL of missing key reported found")
	}
}

// TestSnapshotScanPrefixWithPendingBatch: a durable SCAN returns the
// prefix's entries at the durable snapshot only. A pinned pre-image
// stands in for its live key inside the prefix and stays out of the
// result outside it; a key created since is absent.
func TestSnapshotScanPrefixWithPendingBatch(t *testing.T) {
	s := New()
	mustApply(t, s, Put("a1", "old"))
	mustApply(t, s, Put("b1", "old"))
	s.EndBatch(1)
	s.AdvanceDurable(1) // durable snapshot: a1=old, b1=old

	mustApply(t, s, Put("a1", "new"))
	mustApply(t, s, Del("b1"))
	mustApply(t, s, Put("a2", "new"))
	s.EndBatch(2) // pending, not durable
	raw, err := s.SnapshotRead(Scan("a", 0))
	if err != nil {
		t.Fatal(err)
	}
	scan, err := DecodeScanResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(scan) != 1 || scan[0] != (ScanEntry{Key: "a1", Value: "old"}) {
		t.Fatalf("durable scan of a = %+v, want [a1=old]", scan)
	}
}

// TestSnapshotReadPinsInFlightBatch: mutations of the currently-executing
// batch (recorded in the overlay's still-open generation, before EndBatch)
// must be invisible to snapshot reads — a concurrent read of a key first
// touched by the in-flight batch returns the durable pre-image, never the
// live mid-batch value, which is not yet persistent and could roll back.
func TestSnapshotReadPinsInFlightBatch(t *testing.T) {
	s := New()
	mustApply(t, s, Put("k", "v1"))
	s.EndBatch(1)
	s.AdvanceDurable(1) // durable snapshot: k=v1

	snapGet := func(key string) Result {
		t.Helper()
		raw, err := s.SnapshotRead(Get(key))
		if err != nil {
			t.Fatalf("SnapshotRead get %q: %v", key, err)
		}
		res, err := DecodeResult(raw)
		if err != nil {
			t.Fatalf("DecodeResult: %v", err)
		}
		return res
	}

	// An in-flight batch overwrites k and creates n; no EndBatch yet.
	mustApply(t, s, Put("k", "v2"))
	mustApply(t, s, Put("n", "new"))
	if res := snapGet("k"); string(res.Value) != "v1" {
		t.Fatalf("snapshot get mid-batch = %q, want durable v1", res.Value)
	}
	if res := snapGet("n"); res.Found {
		t.Fatal("snapshot get saw a key created by the in-flight batch")
	}
	raw, err := s.SnapshotRead(Scan("", 0))
	if err != nil {
		t.Fatalf("SnapshotRead scan: %v", err)
	}
	scan, err := DecodeScanResult(raw)
	if err != nil {
		t.Fatalf("DecodeScanResult: %v", err)
	}
	if len(scan) != 1 || scan[0].Key != "k" || scan[0].Value != "v1" {
		t.Fatalf("snapshot scan mid-batch = %+v, want [k=v1]", scan)
	}

	// Once the batch closes and is durable, the new state is visible.
	s.EndBatch(2)
	s.AdvanceDurable(2)
	if res := snapGet("k"); string(res.Value) != "v2" {
		t.Fatalf("snapshot get after advance = %q, want v2", res.Value)
	}
	if res := snapGet("n"); !res.Found || string(res.Value) != "new" {
		t.Fatalf("snapshot get n after advance = %+v, want new", res)
	}

	// An in-flight delete likewise stays invisible until durable.
	mustApply(t, s, Del("k"))
	if res := snapGet("k"); !res.Found || string(res.Value) != "v2" {
		t.Fatalf("snapshot get during in-flight delete = %+v, want v2", res)
	}
	s.EndBatch(3)
	s.AdvanceDurable(3)
	if res := snapGet("k"); res.Found {
		t.Fatal("snapshot get after durable delete still found the key")
	}
}

func TestEmptyValueIsDistinctFromMissing(t *testing.T) {
	s := New()
	mustApply(t, s, Put("k", ""))
	res := mustApply(t, s, Get("k"))
	if !res.Found || len(res.Value) != 0 {
		t.Fatalf("GET of empty value = %+v", res)
	}
}

func TestScan(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		mustApply(t, s, Put(fmt.Sprintf("user%d", i), fmt.Sprintf("v%d", i)))
	}
	mustApply(t, s, Put("other", "x"))

	raw, err := s.Apply(Scan("user", 0))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := DecodeScanResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("scan returned %d entries, want 5", len(entries))
	}
	for i, e := range entries {
		if e.Key != fmt.Sprintf("user%d", i) {
			t.Fatalf("scan order wrong: %v", entries)
		}
	}

	raw, _ = s.Apply(Scan("user", 2))
	entries, _ = DecodeScanResult(raw)
	if len(entries) != 2 {
		t.Fatalf("limited scan returned %d entries, want 2", len(entries))
	}
}

// A scan allocates for its hits, not for the keyspace: the same 11 hits
// cost the same bytes from 1 000 keys and from 20 000.
func TestScanAllocatesForHitsNotKeyspace(t *testing.T) {
	scanBytes := func(keys int) uint64 {
		s := New()
		for i := 0; i < keys; i++ {
			prefix := "other"
			if i%(keys/11) == 0 && i/(keys/11) < 11 {
				prefix = "hit"
			}
			mustApply(t, s, Put(fmt.Sprintf("%s%06d", prefix, i), "v"))
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			raw, err := s.Apply(Scan("hit", 50))
			if err != nil || raw[0] != statusOK || binary.BigEndian.Uint32(raw[1:]) != 11 {
				t.Fatalf("scan over %d keys = %x, %v; want 11 hits", keys, raw[:min(len(raw), 5)], err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	small, big := scanBytes(1000), scanBytes(20000)
	if big > small+small/2 {
		t.Fatalf("a scan allocated %d B over 20 000 keys, %d B over 1 000, for the same 11 hits", big, small)
	}
}

func TestMalformedOps(t *testing.T) {
	s := New()
	cases := [][]byte{
		nil,
		{},
		{0x00},
		{0xFF, 0x01},
		Get("k")[:2],           // truncated
		append(Get("k"), 0x00), // trailing bytes
	}
	for i, op := range cases {
		if _, err := s.Apply(op); !errors.Is(err, ErrMalformedOp) {
			t.Fatalf("case %d: Apply = %v, want ErrMalformedOp", i, err)
		}
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	s := New()
	for i := 0; i < 100; i++ {
		mustApply(t, s, Put(fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%d", i)))
	}
	mustApply(t, s, Del("key-050"))

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != s.Len() {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), s.Len())
	}
	if restored.Footprint() != s.Footprint() {
		t.Fatalf("restored Footprint = %d, want %d", restored.Footprint(), s.Footprint())
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("key-%03d", i)
		want := mustApply(t, s, Get(key))
		got := mustApply(t, restored, Get(key))
		if want.Found != got.Found || !bytes.Equal(want.Value, got.Value) {
			t.Fatalf("key %s differs after restore", key)
		}
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func(order []int) *Store {
		s := New()
		for _, i := range order {
			mustApply(t, s, Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)))
		}
		return s
	}
	a, _ := build([]int{1, 2, 3}).Snapshot()
	b, _ := build([]int{3, 1, 2}).Snapshot()
	if !bytes.Equal(a, b) {
		t.Fatal("snapshot depends on insertion order")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	s := New()
	if err := s.Restore([]byte{0xFF, 0xFF, 0xFF}); err == nil {
		t.Fatal("Restore accepted garbage")
	}
}

// Footprint must follow the Sec. 6.2 model: ~134 % overhead on payload
// bytes plus 48 bytes per object, growing and shrinking with the data.
func TestFootprintModel(t *testing.T) {
	s := New()
	if s.Footprint() != 0 {
		t.Fatalf("empty footprint = %d", s.Footprint())
	}
	key := string(make([]byte, 40))
	val := string(make([]byte, 100))
	mustApply(t, s, Put(key, val))
	want := int64(140*234/100 + 48)
	if got := s.Footprint(); got != want {
		t.Fatalf("footprint of one 40B/100B object = %d, want %d", got, want)
	}
	// The paper: 300 000 such objects ≈ 93 MB. Our model should land in
	// the same range (>80 MB).
	perObject := s.Footprint()
	if total := perObject * 300_000; total < 80<<20 || total > 120<<20 {
		t.Fatalf("300k objects model %d bytes, want ≈93MB", total)
	}
	// Overwrite with a larger value grows the footprint.
	mustApply(t, s, Put(key, string(make([]byte, 200))))
	if s.Footprint() <= perObject {
		t.Fatal("footprint did not grow on larger overwrite")
	}
	// Delete returns to zero.
	mustApply(t, s, Del(key))
	if s.Footprint() != 0 {
		t.Fatalf("footprint after delete = %d, want 0", s.Footprint())
	}
}

// Property: a store is exactly equivalent to a model map under random
// PUT/GET/DEL sequences.
func TestQuickStoreMatchesModelMap(t *testing.T) {
	type step struct {
		Op    uint8
		Key   uint8 // small key space to force collisions
		Value string
	}
	check := func(steps []step) bool {
		s := New()
		model := make(map[string]string)
		for _, st := range steps {
			key := fmt.Sprintf("k%d", st.Key%8)
			switch st.Op % 3 {
			case 0: // PUT
				raw, err := s.Apply(Put(key, st.Value))
				if err != nil {
					return false
				}
				if res, err := DecodeResult(raw); err != nil || !res.Found {
					return false
				}
				model[key] = st.Value
			case 1: // GET
				raw, err := s.Apply(Get(key))
				if err != nil {
					return false
				}
				res, err := DecodeResult(raw)
				if err != nil {
					return false
				}
				want, ok := model[key]
				if res.Found != ok || (ok && string(res.Value) != want) {
					return false
				}
			case 2: // DEL
				raw, err := s.Apply(Del(key))
				if err != nil {
					return false
				}
				res, err := DecodeResult(raw)
				if err != nil {
					return false
				}
				_, ok := model[key]
				if res.Found != ok {
					return false
				}
				delete(model, key)
			}
		}
		return s.Len() == len(model)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot/restore is the identity on state for random contents.
func TestQuickSnapshotRestoreIdentity(t *testing.T) {
	check := func(pairs map[string]string) bool {
		s := New()
		for k, v := range pairs {
			if _, err := s.Apply(Put(k, v)); err != nil {
				return false
			}
		}
		snap, err := s.Snapshot()
		if err != nil {
			return false
		}
		r := New()
		if err := r.Restore(snap); err != nil {
			return false
		}
		snap2, err := r.Snapshot()
		if err != nil {
			return false
		}
		return bytes.Equal(snap, snap2) && r.Footprint() == s.Footprint()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestShardKeys(t *testing.T) {
	if keys := New().ShardKeys(Put("k1", "v")); len(keys) != 1 || keys[0] != "k1" {
		t.Fatalf("put keys = %v", keys)
	}
	if keys := New().ShardKeys(Get("k2")); len(keys) != 1 || keys[0] != "k2" {
		t.Fatalf("get keys = %v", keys)
	}
	if keys := New().ShardKeys(Del("k3")); len(keys) != 1 || keys[0] != "k3" {
		t.Fatalf("del keys = %v", keys)
	}
	if keys := New().ShardKeys(Scan("pre", 5)); keys != nil {
		t.Fatalf("scan must be unshardable, got %v", keys)
	}
	if keys := New().ShardKeys(nil); keys != nil {
		t.Fatalf("empty op must be unshardable, got %v", keys)
	}
}

// restoredStore returns a store restored from a snapshot of n entries
// "key-<i>" → value; armed arms its overlay first, as on a live instance
// that serves snapshot reads.
func restoredStore(t *testing.T, n int, value string, armed bool) *Store {
	t.Helper()
	src := New()
	for i := 0; i < n; i++ {
		mustApply(t, src, Put(fmt.Sprintf("key-%d", i), value))
	}
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	if armed {
		s.EndBatch(0)
	}
	if err := s.Restore(snap); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRestoreOverwriteOverlay: after a restore, a store whose snapshot
// reads were never armed keeps no pre-image of the keys it overwrites; an
// armed one (Restore keeps it armed) keeps one per written key, holding
// the restored value, until AdvanceDurable retires them.
func TestRestoreOverwriteOverlay(t *testing.T) {
	const n = 16
	for _, armed := range []bool{false, true} {
		t.Run(fmt.Sprintf("armed=%v", armed), func(t *testing.T) {
			s := restoredStore(t, n, "old", armed)
			for i := 0; i < n; i++ {
				mustApply(t, s, Put(fmt.Sprintf("key-%d", i), "new"))
			}
			want := 0
			if armed {
				want = n
			}
			if got := s.kv.PreImages(); got != want {
				t.Fatalf("%d pre-images after overwrite, want %d", got, want)
			}
			for i := 0; armed && i < n; i++ {
				if v, _ := s.kv.ReadDurable(fmt.Sprintf("key-%d", i)); v != "old" {
					t.Fatalf("pre-image of key-%d = %q, want the restored value", i, v)
				}
			}
			s.EndBatch(1)
			s.AdvanceDurable(1)
			if got := s.kv.PreImages(); got != 0 {
				t.Fatalf("%d pre-images survived AdvanceDurable", got)
			}
		})
	}
}

// TestRestoreOverwriteHeap: overwriting every key of a restored store whose
// reads are not armed must not keep the restored values alive. Pinning a
// pre-image per key would double the heap.
func TestRestoreOverwriteHeap(t *testing.T) {
	const n, size = 2000, 1024
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	s := restoredStore(t, n, string(bytes.Repeat([]byte{'a'}, size)), false)
	before := heap()
	value := string(bytes.Repeat([]byte{'b'}, size))
	for i := 0; i < n; i++ {
		mustApply(t, s, Put(fmt.Sprintf("key-%d", i), value))
	}
	after := heap()
	runtime.KeepAlive(s)
	if after > before+before/4 {
		t.Fatalf("heap grew %d → %d bytes (%.2fx) after one overwrite pass; want < 1.25x",
			before, after, float64(after)/float64(before))
	}
	t.Logf("heap %d → %d bytes (%.2fx)", before, after, float64(after)/float64(before))
}
