package service

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"testing"

	"lcm/internal/wire"
)

// testCodec encodes a uint64 value.
var testCodec = Codec[uint64]{
	Size:      func(uint64) int { return 8 },
	Put:       func(w *wire.Writer, v uint64) { w.U64(v) },
	Get:       func(r *wire.Reader) uint64 { return r.U64() },
	Footprint: func(key string, _ uint64) int64 { return int64(len(key)) + 8 },
}

// Snapshot readers running beside the writer see one durable batch, never
// a mix: every batch writes its number to every key (and deletes one key,
// re-created by the next batch), and the durable point trails execution
// by two batches, so a RangeDurable that mixed generations, or read the
// live map, would see two values. Run it under -race.
func TestKeyedDurableReadsDuringWrites(t *testing.T) {
	const keys, batches, readers = 16, 300, 2
	k := NewKeyed(testCodec)
	name := func(i int) string { return fmt.Sprintf("k%02d", i) }
	for i := 0; i < keys; i++ {
		k.Set(name(i), 0)
	}
	k.EndBatch(0) // arm, with everything durable at batch 0
	k.AdvanceDurable(0)

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				seen := map[uint64]int{}
				for _, v := range k.RangeDurable("") {
					seen[v]++
				}
				if len(seen) != 1 {
					t.Errorf("RangeDurable saw values %v, want one batch's", seen)
					return
				}
				for v, n := range seen {
					if n != keys && n != keys-1 {
						t.Errorf("RangeDurable saw %d keys of batch %d, want %d or %d", n, v, keys, keys-1)
						return
					}
					if got, ok := k.ReadDurable(name(0)); ok && got < v {
						t.Errorf("ReadDurable = %d after a range saw batch %d", got, v)
						return
					}
				}
			}
		}()
	}
	for b := uint64(1); b <= batches; b++ {
		for i := 0; i < keys; i++ {
			k.Set(name(i), b)
		}
		k.Delete(name(int(b) % keys))
		k.EndBatch(b)
		if b > 2 {
			k.AdvanceDurable(b - 2)
		}
	}
	close(done)
	wg.Wait()
}

// A delta after a window that dirtied more keys than a batch does (the
// set is replaced, not cleared) holds only the keys changed since; so
// does one after a small window (cleared in place).
func TestKeyedDeltaAfterLargeWindow(t *testing.T) {
	k := NewKeyed(testCodec)
	count := func() uint32 {
		w := wire.NewWriter(0)
		k.Delta(w)
		return wire.NewReader(w.Bytes()).U32()
	}
	for _, window := range []int{1000, 3} {
		for i := 0; i < window; i++ {
			k.Set(fmt.Sprintf("k%04d", i), uint64(i))
		}
		if n := count(); n != uint32(window) {
			t.Fatalf("delta of a %d-key window holds %d keys", window, n)
		}
		k.Set("k0001", 7)
		if n := count(); n != 1 {
			t.Fatalf("delta after a %d-key window holds %d keys, want 1", window, n)
		}
	}
}

// sortedSection encodes model as Snapshot must: a count, then the entries
// in ascending key order.
func sortedSection(model map[string]uint64) []byte {
	w := wire.NewWriter(0)
	w.U32(uint32(len(model)))
	for _, key := range slices.Sorted(maps.Keys(model)) {
		w.Var([]byte(key))
		w.U64(model[key])
	}
	return w.Bytes()
}

// checkRanges compares live (Range) or durable (RangeDurable) prefix
// ranges with model's entries under each prefix, in key order.
func checkRanges(t *testing.T, what string, k *Keyed[uint64], model map[string]uint64, durable bool) {
	t.Helper()
	sorted := slices.Sorted(maps.Keys(model))
	for _, prefix := range []string{"", "a", "b1", "c12", "d299", "dz", "e"} {
		ranged := k.Range
		if durable {
			ranged = k.RangeDurable
		}
		var got, want []string
		for key, v := range ranged(prefix) {
			if v != model[key] {
				t.Fatalf("%s: %q = %d, want %d", what, key, v, model[key])
			}
			got = append(got, key)
		}
		for _, key := range sorted {
			if strings.HasPrefix(key, prefix) {
				want = append(want, key)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: prefix %q ranged %d keys, want %d in order:\n got %q\nwant %q", what, prefix, len(got), len(want), got, want)
		}
	}
}

// The ordered key index agrees with a sorted model: under random inserts,
// overwrites, deletes and re-inserts enough to grow and shrink a B-tree of
// several levels; in Snapshot, Restore, Partition and Merge; and under
// RangeDurable with pre-images pinned by a batch not yet durable, a range
// that stops early included.
func TestKeyedOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	k := NewKeyed(testCodec)
	model := map[string]uint64{}
	randKey := func() string { return fmt.Sprintf("%c%d", 'a'+rng.IntN(4), rng.IntN(3000)) }
	mutate := func(n int, deleteShare int) {
		for i := 0; i < n; i++ {
			key := randKey()
			if rng.IntN(10) < deleteShare {
				_, had := model[key]
				if k.Delete(key) != had {
					t.Fatalf("Delete(%q) disagrees with the model (present: %v)", key, had)
				}
				delete(model, key)
				continue
			}
			v := rng.Uint64()
			k.Set(key, v)
			model[key] = v
		}
	}
	for round, deleteShare := range []int{2, 4, 2, 9, 10, 3} {
		what := fmt.Sprintf("round %d", round)
		mutate(8000, deleteShare)
		checkRanges(t, what, k, model, false)
		w := wire.NewWriter(0)
		k.Snapshot(w)
		if !bytes.Equal(w.Bytes(), sortedSection(model)) {
			t.Fatalf("%s: Snapshot is not the sorted model's section", what)
		}
		restored := NewKeyed(testCodec)
		if restored.Restore(wire.NewReader(w.Bytes())); restored.Len() != len(model) {
			t.Fatalf("%s: Restore holds %d keys, want %d", what, restored.Len(), len(model))
		}
		checkRanges(t, what+" restored", restored, model, false)
		frozen := k.Freeze()
		checkRanges(t, what+" frozen", frozen, model, false)

		ws := make([]wire.Writer, 3)
		k.Partition(ws)
		merged := NewKeyed(testCodec)
		for j := range ws {
			part := map[string]uint64{}
			for key, v := range model {
				if ShardIndex(key, len(ws)) == j {
					part[key] = v
				}
			}
			if !bytes.Equal(ws[j].Bytes(), sortedSection(part)) {
				t.Fatalf("%s: fragment %d is not its sorted model's section", what, j)
			}
			if merged.Merge(wire.NewReader(ws[j].Bytes())); merged.Len() == 0 && len(part) > 0 {
				t.Fatalf("%s: Merge of fragment %d added nothing", what, j)
			}
		}
		checkRanges(t, what+" merged", merged, model, false)
	}

	// Pin a batch's pre-images: the durable ranges show the state before
	// it, deleted keys merged back in order, inserted ones hidden.
	durable := maps.Clone(model)
	k.EndBatch(0)
	k.AdvanceDurable(0)
	mutate(3000, 4)
	k.EndBatch(1)
	checkRanges(t, "pinned", k, durable, true)
	checkRanges(t, "live beside pins", k, model, false)
	n := 0
	for range k.RangeDurable("") {
		if n++; n == 5 {
			break
		}
	}
	k.AdvanceDurable(1)
	checkRanges(t, "advanced", k, model, true)

	for key := range model {
		k.Delete(key)
	}
	if k.index.root != nil {
		t.Fatal("the index of an emptied map is not empty")
	}
}
