package kvs

import (
	"fmt"
	"strings"
	"testing"

	"lcm/internal/ycsb"
)

// benchShapes are the two state shapes bench/ runs: ycsba's 1 000 keys of
// 100 B and bigstate's 20 000 keys of 1 000 B.
var benchShapes = []struct {
	keys, size int
}{
	{1000, 100},
	{20000, 1000},
}

// benchBatch is the batch size of the delta benchmark and of the load.
const benchBatch = 8

// benchStore returns a store holding keys×size bytes, its delta window
// empty, and one pre-encoded overwrite per key. It loads with a delta
// every window puts; the enclave takes one per batch (window benchBatch),
// so its dirty set never holds more than a batch.
func benchStore(b *testing.B, keys, size, window int) (*Store, [][]byte) {
	b.Helper()
	s := New()
	puts := make([][]byte, keys)
	value := strings.Repeat("v", size)
	for i := range puts {
		puts[i] = Put(fmt.Sprintf("user%08d", i), value)
		if _, err := s.Apply(puts[i]); err != nil {
			b.Fatal(err)
		}
		if i%window == window-1 {
			if _, err := s.Delta(); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := s.Delta(); err != nil {
		b.Fatal(err)
	}
	return s, puts
}

func benchEachShape(b *testing.B, run func(b *testing.B, s *Store, puts [][]byte)) {
	for _, shape := range benchShapes {
		b.Run(fmt.Sprintf("%dx%dB", shape.keys, shape.size), func(b *testing.B) {
			s, puts := benchStore(b, shape.keys, shape.size, benchBatch)
			b.ReportAllocs()
			b.ResetTimer()
			run(b, s, puts)
		})
	}
}

// One overwrite through Apply: the write half of every bench/ workload.
func BenchmarkStoreApplyPut(b *testing.B) {
	benchEachShape(b, func(b *testing.B, s *Store, puts [][]byte) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Apply(puts[i%len(puts)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// One batch of benchBatch overwrites and its delta, as the enclave seals
// one per batch: BenchmarkStoreApplyPut's cost times benchBatch, plus the
// delta's. The window cases load 20 000 keys of 100 B with a delta every
// batch or in one window (an epoch seal that touches the whole bank, a
// huge batch): a window that dirtied many keys must not tax later
// deltas, so the two come within 1.5× of each other.
func BenchmarkStoreDelta(b *testing.B) {
	run := func(b *testing.B, s *Store, puts [][]byte) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < benchBatch; j++ {
				if _, err := s.Apply(puts[(benchBatch*i+j)%len(puts)]); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := s.Delta(); err != nil {
				b.Fatal(err)
			}
		}
	}
	benchEachShape(b, run)
	for _, window := range []int{benchBatch, 20000} {
		b.Run(fmt.Sprintf("20000x100B/window=%d", window), func(b *testing.B) {
			s, puts := benchStore(b, 20000, 100, window)
			b.ReportAllocs()
			b.ResetTimer()
			run(b, s, puts)
		})
	}
}

// A SCAN through Apply matching 10 keys, as scanmix runs one on each
// shard: its cost grows with the matches, not with the store, so it stays
// flat from 1 000 to 20 000 keys.
func BenchmarkStoreScan(b *testing.B) {
	benchEachShape(b, func(b *testing.B, s *Store, _ [][]byte) {
		scan := Scan("user0000001", 50) // user00000010 … user00000019
		for i := 0; i < b.N; i++ {
			if _, err := s.Apply(scan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// A load of 20 000 fresh keys of 100 B in YCSB's key order ("user0",
// "user1", …, padded to 40 bytes), as bench/'s set-up inserts them: every
// put adds a key to the ordered index.
func BenchmarkStoreLoad(b *testing.B) {
	w := ycsb.WorkloadA(20000, 100)
	puts := make([][]byte, w.RecordCount)
	for i, key := range w.LoadKeys() {
		puts[i] = Put(key, strings.Repeat("v", w.ValueSize))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for j, put := range puts {
			if _, err := s.Apply(put); err != nil {
				b.Fatal(err)
			}
			if j%benchBatch == benchBatch-1 {
				if _, err := s.Delta(); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// A full snapshot, as a checkpoint seals one.
func BenchmarkStoreSnapshot(b *testing.B) {
	benchEachShape(b, func(b *testing.B, s *Store, _ [][]byte) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// A restore of a full snapshot, as recovery installs one.
func BenchmarkStoreRestore(b *testing.B) {
	benchEachShape(b, func(b *testing.B, s *Store, _ [][]byte) {
		snap, err := s.Snapshot()
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := New().Restore(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// A durable SCAN (SnapshotRead) matching 10 keys while four batches of
// benchBatch overwrites are pending: the read half of scanmix with armed
// reads, whose cost must grow with the matches, not with the store times
// the pending batches.
func BenchmarkStoreSnapshotScan(b *testing.B) {
	benchEachShape(b, func(b *testing.B, s *Store, puts [][]byte) {
		s.EndBatch(0) // arm, with everything durable
		s.AdvanceDurable(0)
		for g := 0; g < 4; g++ {
			for j := 0; j < benchBatch; j++ {
				if _, err := s.Apply(puts[(benchBatch*g+j)*97%len(puts)]); err != nil {
					b.Fatal(err)
				}
			}
			s.EndBatch(uint64(g + 1))
		}
		scan := Scan("user0000001", 0) // user00000010 … user00000019
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.SnapshotRead(scan); err != nil {
				b.Fatal(err)
			}
		}
	})
}
