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

// indexBytes is the heap a keyIndex of keys, inserted in that order,
// holds.
func indexBytes(keys []string) (uint64, *keyIndex) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x := &keyIndex{}
	for _, key := range keys {
		x.insert(key)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return after.HeapAlloc - before.HeapAlloc, x
}

// The index costs at most 24 B per key, string headers included (the
// strings themselves are the map's), whether the keys arrive sorted, in
// YCSB's load order ("user0", "user1", …, unpadded numbers) or at random.
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
		t.Logf("%s: %.1f B per key", tc.name, per)
		if per > 24 {
			t.Errorf("%s: the index costs %.1f B per key, want at most 24", tc.name, per)
		}
		if got := slices.Collect(x.from("")); !slices.Equal(got, slices.Sorted(slices.Values(tc.keys))) {
			t.Fatalf("%s: the index does not hold the keys in order", tc.name)
		}
	}
}

// An overwrite leaves one copy of its key's bytes live: the map takes the
// index's copy instead of keeping the caller's new one beside it.
func TestKeyedOverwriteSharesKey(t *testing.T) {
	k := NewKeyed(testCodec)
	k.Set(strings.Clone("key"), 1)
	k.Set(strings.Clone("key"), 2)
	for key := range k.m {
		if unsafe.StringData(key) != unsafe.StringData(k.index.stored("key")) {
			t.Fatal("the map and the index hold two copies of the key")
		}
	}
}
