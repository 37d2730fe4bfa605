package service

import (
	"fmt"
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
				k.RangeDurable("", func(_ string, v uint64) { seen[v]++ })
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
