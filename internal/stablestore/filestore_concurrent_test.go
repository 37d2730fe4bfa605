package stablestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
)

// FileStore's locking contract (see its godoc), exercised under -race:
// per-slot serialisation, no waiting between slots, and handles that
// survive a racing TruncateLog / DeleteNamespace.

func seqRecord(n uint64) []byte { return binary.BigEndian.AppendUint64(nil, n) }

// contiguous reports whether records hold consecutive sequence numbers,
// returning the first and the count.
func contiguous(records [][]byte) (first uint64, n int, ok bool) {
	for i, rec := range records {
		if len(rec) != 8 {
			return 0, 0, false
		}
		seq := binary.BigEndian.Uint64(rec)
		if i == 0 {
			first = seq
		} else if seq != first+uint64(i) {
			return 0, 0, false
		}
	}
	return first, len(records), true
}

// Each slot has one owner issuing AppendGroup / Append / Store /
// TruncateLog in its own order while readers hammer the same slot and
// every other slot's owner runs at the same time. Readers always see a
// whole, ordered window of the owner's records and an untorn blob; at the
// end each log holds exactly the records acknowledged since the owner's
// last truncate.
func TestFileStoreConcurrentSlots(t *testing.T) {
	for _, syncWrites := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", syncWrites), func(t *testing.T) {
			fs, err := NewFileStore(t.TempDir(), syncWrites, nil)
			if err != nil {
				t.Fatal(err)
			}
			const slots, ops = 6, 60
			var owners, readers sync.WaitGroup
			stop := make(chan struct{})
			want := make([][2]uint64, slots) // per slot: first seq and count expected at the end
			for i := 0; i < slots; i++ {
				slot := fmt.Sprintf("shard%d/slot%d", i%2, i)
				owners.Add(1)
				go func(i int) {
					defer owners.Done()
					next, first := uint64(0), uint64(0)
					for op := 0; op < ops; op++ {
						var err error
						switch {
						case op%20 == 19:
							err = fs.TruncateLog(slot)
							first = next
						case op%5 == 4:
							err = fs.Store(slot, bytes.Repeat([]byte{byte(op)}, 512))
						case op%2 == 0:
							err = fs.AppendGroup(slot, [][]byte{seqRecord(next), seqRecord(next + 1), seqRecord(next + 2)})
							next += 3
						default:
							err = fs.Append(slot, seqRecord(next))
							next++
						}
						if err != nil {
							t.Errorf("%s op %d: %v", slot, op, err)
							return
						}
					}
					want[i] = [2]uint64{first, next - first}
				}(i)
				readers.Add(1)
				go func() {
					defer readers.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						records, err := fs.LoadLog(slot)
						if _, _, ok := contiguous(records); err != nil || !ok {
							t.Errorf("%s: concurrent LoadLog saw a reordered or torn log (%v)", slot, err)
							return
						}
						if blob, err := fs.Load(slot); err == nil && (len(blob) != 512 || bytes.Count(blob, blob[:1]) != 512) {
							t.Errorf("%s: concurrent Load saw a torn blob", slot)
							return
						}
					}
				}()
			}
			owners.Wait()
			close(stop)
			readers.Wait()
			for i := 0; i < slots; i++ {
				slot := fmt.Sprintf("shard%d/slot%d", i%2, i)
				records, err := fs.LoadLog(slot)
				first, n, ok := contiguous(records)
				if err != nil || !ok || uint64(n) != want[i][1] || (n > 0 && first != want[i][0]) {
					t.Fatalf("%s: log = %d records from %d (ok=%v, %v), want the %d acknowledged from %d",
						slot, n, first, ok, err, want[i][1], want[i][0])
				}
			}
		})
	}
}

// Several writers share one slot: every group lands whole and each
// writer's groups stay in its own order.
func TestFileStoreConcurrentWritersOneSlot(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	const writers, groups, size = 4, 25, 3
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for g := 0; g < groups; g++ {
				group := make([][]byte, size)
				for k := range group {
					group[k] = []byte{byte(w), byte(g), byte(k)}
				}
				if err := fs.AppendGroup("log", group); err != nil {
					t.Errorf("writer %d group %d: %v", w, g, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	records, err := fs.LoadLog("log")
	if err != nil || len(records) != writers*groups*size {
		t.Fatalf("log = %d records (%v), want %d", len(records), err, writers*groups*size)
	}
	nextGroup := make([]byte, writers)
	for i := 0; i < len(records); i += size {
		w, g := records[i][0], records[i][1]
		if g != nextGroup[w] {
			t.Fatalf("record %d: writer %d group %d out of order, want %d", i, w, g, nextGroup[w])
		}
		nextGroup[w]++
		for k := 0; k < size; k++ {
			if !bytes.Equal(records[i+k], []byte{w, g, byte(k)}) {
				t.Fatalf("record %d: group (%d,%d) interleaved with another: %v", i+k, w, g, records[i+k])
			}
		}
	}
}

// Appends race DeleteNamespace and TruncateLog on their own slots: each
// either lands before the unlink or reopens the file — an append never
// fails on a closed handle, and what survives is an ordered suffix of what
// was acknowledged, ending with the last record.
func TestFileStoreConcurrentAppendVsDelete(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	const appends = 400
	var appenders sync.WaitGroup
	slotNames := []string{"gen1/shard0/log", "gen1/shard1/log"}
	for _, slot := range slotNames {
		appenders.Add(1)
		go func() {
			defer appenders.Done()
			for n := uint64(0); n < appends; n++ {
				if err := fs.Append(slot, seqRecord(n)); err != nil {
					t.Errorf("%s append %d: %v", slot, n, err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			if err := fs.DeleteNamespace("gen1"); err != nil {
				t.Errorf("DeleteNamespace: %v", err)
			}
			if err := fs.TruncateLog(slotNames[i%2]); err != nil {
				t.Errorf("TruncateLog: %v", err)
			}
			fs.Slots()
		}
	}()
	<-done
	appenders.Wait()
	for _, slot := range slotNames {
		if err := fs.Append(slot, seqRecord(appends)); err != nil {
			t.Fatal(err)
		}
		records, err := fs.LoadLog(slot)
		first, n, ok := contiguous(records)
		if err != nil || !ok || n == 0 || first+uint64(n)-1 != appends {
			t.Fatalf("%s: %d records from %d (ok=%v, %v), want an ordered suffix ending at %d", slot, n, first, ok, err, appends)
		}
	}
}

// The no-lock-across-callback contract of ScanLog, extended to appends:
// from inside a scan of slot A the callback may append to A itself and
// use every operation on slot B.
func TestFileStoreConcurrentScanCallback(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.AppendGroup("a", [][]byte{seqRecord(0), seqRecord(1), seqRecord(2)}); err != nil {
		t.Fatal(err)
	}
	visited := 0
	err = fs.ScanLog("a", func(rec []byte) error {
		visited++
		if err := fs.Append("a", seqRecord(2+uint64(visited))); err != nil {
			return err
		}
		if err := fs.AppendGroup("b", [][]byte{rec}); err != nil {
			return err
		}
		if err := fs.Store("b", rec); err != nil {
			return err
		}
		if _, err := fs.Load("b"); err != nil {
			return err
		}
		_, err := fs.LoadLog("b")
		return err
	})
	if err != nil || visited != 3 {
		t.Fatalf("scan visited %d records (%v), want the 3 present at scan start", visited, err)
	}
	for slot, want := range map[string]int{"a": 6, "b": 3} {
		records, err := fs.LoadLog(slot)
		if _, n, ok := contiguous(records); err != nil || !ok || n != want {
			t.Fatalf("slot %s = %d records (ok=%v, %v), want %d", slot, n, ok, err, want)
		}
	}
}

// A truncated log leaves no slot-table entry behind: a deployment opens a
// new log segment per checkpoint, and the table must not grow with them.
func TestFileStoreTruncateRetiresSlot(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		slot := fmt.Sprintf("lcm-deltalog.%d", i)
		if err := fs.Append(slot, seqRecord(i)); err != nil {
			t.Fatal(err)
		}
		if err := fs.TruncateLog(slot); err != nil {
			t.Fatal(err)
		}
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if n := len(fs.slots); n != 0 {
		t.Fatalf("%d slot entries after every log was truncated, want 0", n)
	}
}
