package stablestore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// ScanLog streams exactly the records LoadLog returns, for every store
// flavour, including through namespacing.
func TestScanLogMatchesLoadLog(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	stores := map[string]Store{
		"mem":        NewMemStore(),
		"file":       fs,
		"namespaced": NewNamespaced(NewMemStore(), "ns"),
		"rollback":   NewRollbackStore(NewMemStore()),
		"crash":      NewCrashStore(NewMemStore()),
	}
	for name, s := range stores {
		t.Run(name, func(t *testing.T) {
			var want [][]byte
			for i := 0; i < 10; i++ {
				rec := bytes.Repeat([]byte{byte(i)}, 100+i*37)
				want = append(want, rec)
				if err := s.Append("log", rec); err != nil {
					t.Fatal(err)
				}
			}
			var got [][]byte
			if err := ScanLog(s, "log", func(record []byte) error {
				got = append(got, record)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("scanned %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d differs", i)
				}
			}
		})
	}
}

// A torn trailing frame (crash mid-append) is dropped by the streaming
// reader exactly like by LoadLog: a header promising more bytes than
// exist, a zero-filled tail (the file extended before its data reached
// it; sealed records are never empty), and a corrupt length near 4 GiB,
// which must not cost an allocation of that size.
func TestFileStoreScanLogDropsTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		tail []byte
	}{
		{"short payload", []byte{0, 0, 0, 99, 1, 2, 3, 4, 'x', 'y'}},
		{"zero fill", make([]byte, 4096)},
		{"huge length", []byte{0xFF, 0xFF, 0xFF, 0xF0, 1, 2, 3, 4, 'x', 'y'}},
	} {
		tail := tc.tail
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewFileStore(t.TempDir(), false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Append("log", []byte("complete")); err != nil {
				t.Fatal(err)
			}
			s = tornRestart(t, s, "log", 0, tail)

			var got [][]byte
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = ScanLog(s, "log", func(record []byte) error {
				got = append(got, record)
				return nil
			})
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || string(got[0]) != "complete" {
				t.Fatalf("scan over torn log = %q", got)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Fatalf("scan over a %d-byte log allocated %d bytes", frameHeader+len("complete")+len(tail), alloc)
			}
			if log, err := s.LoadLog("log"); err != nil || len(log) != 1 {
				t.Fatalf("LoadLog over torn log = %q, %v", log, err)
			}
		})
	}
}

// FuzzFileStoreScanLog writes an arbitrary byte string as a log file.
// Oracles: no panic; ScanLog streams exactly the records LoadLog (that
// is, splitLog) returns, and openLog cuts the file back to exactly
// those records' frames — the three readers agree on every torn-tail
// rule, and all three refuse a file in another format with
// ErrLogVersion; flipping a byte inside a returned record's payload ends
// the stream at that record; and the scan allocates in proportion to the
// file, not to the lengths its headers claim. Every seed is added with
// and without the header.
func FuzzFileStoreScanLog(f *testing.F) {
	zeroed := frameStream("a", "zero-filled payload")
	clear(zeroed[len(zeroed)-len("zero-filled payload"):])
	for _, frames := range [][]byte{
		{},
		frameStream("a", "bc"),
		append(frameStream("a"), 0, 0, 0, 99, 1, 2, 3, 4, 'x', 'y'),
		append(frameStream("a"), appendFrame(make([]byte, frameHeader), []byte("b"))...),
		{0xFF, 0xFF, 0xFF, 0xF0, 1, 2, 3, 4, 'x', 'y'},
		zeroed,
		append(frameStream("a", "bc"), "garbage behind a valid frame"...),
		append(frameStream("a", "bc"), make([]byte, logExtent)...),
	} {
		f.Add(frames)
		f.Add(append([]byte(LogHeader), frames...))
	}
	f.Add([]byte(LogHeader[:3]))
	f.Add(make([]byte, 5))
	dir := f.TempDir()
	s, err := NewFileStore(dir, false, nil)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(dir, "log.log")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var scanned [][]byte
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		scanErr := ScanLog(s, "log", func(record []byte) error {
			scanned = append(scanned, record)
			return nil
		})
		runtime.ReadMemStats(&after)
		// The 64 KiB read buffer, the records and the slice of them.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(12*len(raw)+256<<10); alloc > bound {
			t.Fatalf("scan of a %d-byte log allocated %d bytes, bound %d", len(raw), alloc, bound)
		}
		loaded, loadErr := s.LoadLog("log")
		sl := s.lock("log")
		openErr := s.openLog(sl, "log")
		off := sl.off
		sl.closeLog()
		sl.mu.Unlock()
		start, _, versionErr := scanLog(bytes.NewReader(raw), int64(len(raw)), func([]byte) error { return nil })
		if versionErr != nil {
			for name, err := range map[string]error{"ScanLog": scanErr, "LoadLog": loadErr, "openLog": openErr} {
				if !errors.Is(err, ErrLogVersion) {
					t.Fatalf("%s over a headerless file = %v, want ErrLogVersion", name, err)
				}
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, raw) {
				t.Fatalf("openLog changed a file in another format (%v)", err)
			}
			return
		}
		for name, err := range map[string]error{"ScanLog": scanErr, "LoadLog": loadErr, "openLog": openErr} {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if len(scanned) != len(loaded) {
			t.Fatalf("ScanLog saw %d records, LoadLog %d", len(scanned), len(loaded))
		}
		framed := max(start, int64(len(LogHeader))) // an empty file is rewritten as a bare header
		for i := range loaded {
			if !bytes.Equal(scanned[i], loaded[i]) {
				t.Fatalf("record %d: ScanLog %q, LoadLog %q", i, scanned[i], loaded[i])
			}
			framed += frameHeader + int64(len(loaded[i]))
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if off != framed || fi.Size() != framed {
			t.Fatalf("openLog cut the log to %d bytes, append offset %d; the records LoadLog returns span %d", fi.Size(), off, framed)
		}

		for i, rec := range loaded {
			flipped := bytes.Clone(raw[:framed])
			recStart := start
			for _, prev := range loaded[:i] {
				recStart += frameHeader + int64(len(prev))
			}
			flipped[recStart+frameHeader+int64(len(raw)%len(rec))] ^= 0xFF
			if got, end, err := splitLog(flipped); err != nil || len(got) != i || end != recStart {
				t.Fatalf("a byte flipped in record %d: split = %d records ending at %d (%v)", i, len(got), end, err)
			}
			if i != len(raw)%len(loaded) {
				continue
			}
			if err := os.WriteFile(path, flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			n := 0
			if err := s.ScanLog("log", func([]byte) error { n++; return nil }); err != nil || n != i {
				t.Fatalf("a byte flipped in record %d: ScanLog visited %d records (%v)", i, n, err)
			}
		}
	})
}

// The callback may write back into the same underlying store — the
// copy-between-namespaces pattern reshard staging uses. A lock held
// across the callback would deadlock here.
func TestScanLogCallbackMayWriteSameStore(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Store{fs, NewMemStore()} {
		src := NewNamespaced(s, "gen0/shard0")
		dst := NewNamespaced(s, "gen1/shard0/src0")
		for i := 0; i < 5; i++ {
			if err := src.Append("log", []byte(fmt.Sprintf("rec%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := ScanLog(src, "log", func(record []byte) error {
			return dst.Append("log", record)
		}); err != nil {
			t.Fatalf("copy between namespaces of one store: %v", err)
		}
		records, err := dst.LoadLog("log")
		if err != nil || len(records) != 5 {
			t.Fatalf("copied log = %d records (%v), want 5", len(records), err)
		}
	}
}

// The log-truncation attack applies to streamed reads: a pinned log
// serves only its prefix through ScanLog too.
func TestRollbackStoreScanLogHonoursPin(t *testing.T) {
	s := NewRollbackStore(NewMemStore())
	for i := 0; i < 6; i++ {
		if err := s.Append("log", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if !s.RollbackLogBy("log", 2) {
		t.Fatal("RollbackLogBy failed")
	}
	var got int
	if err := ScanLog(s, "log", func([]byte) error {
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 4 {
		t.Fatalf("pinned scan visited %d records, want 4", got)
	}
}
