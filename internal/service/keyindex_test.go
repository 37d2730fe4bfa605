package service

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// indexBytes is the heap a keyIndex of keys, inserted in that order, each
// with the same value, holds.
func indexBytes(keys []string) (uint64, *keyIndex[string]) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x := &keyIndex[string]{}
	for _, key := range keys {
		x.set(key, "value")
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return after.HeapAlloc - before.HeapAlloc, x
}

// A string-valued index costs at most 44 B per entry: the key's and the
// value's headers and the tree (the strings' bytes are the caller's),
// whether the keys arrive sorted, in YCSB's load order ("user0", "user1",
// …, unpadded numbers) or at random.
func TestKeyIndexBytesPerKey(t *testing.T) {
	const n = 20000
	ycsb := make([]string, n)
	for i := range ycsb {
		ycsb[i] = fmt.Sprintf("user%dxxxxxxxxxx", i)[:14]
	}
	random := slices.Clone(ycsb)
	rand.New(rand.NewPCG(3, 4)).Shuffle(n, func(i, j int) { random[i], random[j] = random[j], random[i] })
	for _, tc := range []struct {
		name string
		keys []string
	}{{"sorted", slices.Sorted(slices.Values(ycsb))}, {"ycsb", ycsb}, {"random", random}} {
		bytes, x := indexBytes(tc.keys)
		per := float64(bytes) / n
		t.Logf("%s: %.1f B per entry", tc.name, per)
		if per > 44 {
			t.Errorf("%s: the index costs %.1f B per entry, want at most 44", tc.name, per)
		}
		var got []string
		for key, v := range x.from("") {
			if got = append(got, key); v != "value" {
				t.Fatalf("%s: %q = %q, want %q", tc.name, key, v, "value")
			}
		}
		if !slices.Equal(got, slices.Sorted(slices.Values(tc.keys))) {
			t.Fatalf("%s: the index does not hold the keys in order", tc.name)
		}
	}
}

// An overwrite keeps the stored copy of its key: the caller's new copy is
// not held beside it.
func TestKeyedOverwriteSharesKey(t *testing.T) {
	k := NewKeyed(testCodec)
	first := strings.Clone("key")
	k.Set(first, 1)
	k.Set(strings.Clone("key"), 2)
	for key, v := range k.index.from("") {
		if v != 2 || unsafe.StringData(key) != unsafe.StringData(first) {
			t.Fatalf("the tree holds %q = %d at a new copy of the key, want 2 at the first copy", key, v)
		}
	}
}
