package stablestore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// Every log file a FileStore creates starts with LogHeader, also after
// TruncateLog, and the header is not a record.
func TestFileStoreLogStartsWithHeader(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		if err := s.Append("log", []byte("record")); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(s.logPath("log"))
		if err != nil || !bytes.HasPrefix(raw, []byte(LogHeader+"\x00\x00\x00\x06")) {
			t.Fatalf("round %d: log file starts %q (%v), want the header, then the frame", round, raw[:min(len(raw), 12)], err)
		}
		if records, err := s.LoadLog("log"); err != nil || len(records) != 1 {
			t.Fatalf("round %d: LoadLog = %q, %v", round, records, err)
		}
		if err := s.TruncateLog("log"); err != nil {
			t.Fatal(err)
		}
	}
}

// A log file in the format of builds before the header (the committed
// fixture: two frames, no header) fails every reader and appends with
// ErrLogVersion, and is left as it was: there is no in-place upgrade, and
// it is not read as an empty log.
func TestUnversionedLogFailsWithErrLogVersion(t *testing.T) {
	old, err := os.ReadFile("testdata/segment-unversioned.log")
	if err != nil {
		t.Fatal(err)
	}
	if records, _ := splitFrames(old); len(records) != 2 {
		t.Fatalf("the fixture holds %d frames, want 2", len(records))
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "lcm-deltalog.log")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewFileStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if records, err := s.LoadLog("lcm-deltalog"); !errors.Is(err, ErrLogVersion) {
		t.Fatalf("LoadLog = %d records, %v; want ErrLogVersion", len(records), err)
	}
	if err := ScanLog(s, "lcm-deltalog", func([]byte) error { return nil }); !errors.Is(err, ErrLogVersion) {
		t.Fatalf("ScanLog = %v, want ErrLogVersion", err)
	}
	if err := s.Append("lcm-deltalog", []byte("new")); !errors.Is(err, ErrLogVersion) {
		t.Fatalf("Append = %v, want ErrLogVersion", err)
	}
	if raw, err := os.ReadFile(path); err != nil || !bytes.Equal(raw, old) {
		t.Fatalf("the old file changed (%v)", err)
	}
}

// A crash while a log file was being created can leave it empty, zeroed or
// holding part of its header: it holds no record, and the next append
// writes the header over it.
func TestTornLogCreationIsAnEmptyLog(t *testing.T) {
	for name, raw := range map[string][]byte{
		"empty":          {},
		"partial header": []byte(LogHeader[:5]),
		"zeros":          make([]byte, 3*len(LogHeader)),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "log.log"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := NewFileStore(dir, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if records, err := s.LoadLog("log"); err != nil || len(records) != 0 {
				t.Fatalf("LoadLog = %q, %v; want an empty log", records, err)
			}
			if err := s.Append("log", []byte("first")); err != nil {
				t.Fatal(err)
			}
			reopened, err := NewFileStore(dir, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if records, err := reopened.LoadLog("log"); err != nil || len(records) != 1 || string(records[0]) != "first" {
				t.Fatalf("after an append: LoadLog = %q, %v", records, err)
			}
		})
	}
}

// The buffers Load and LoadLog return belong to the caller: writing into
// them changes nothing the next load returns, on every store.
func TestLoadedBuffersBelongToTheCaller(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]Store{
		"mem":        NewMemStore(),
		"file":       fs,
		"namespaced": NewNamespaced(NewMemStore(), "ns"),
		"rollback":   NewRollbackStore(NewMemStore()),
		"crash":      NewCrashStore(NewMemStore()),
	} {
		t.Run(name, func(t *testing.T) {
			if err := s.Store("blob", []byte("sealed blob")); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendGroup("log", [][]byte{[]byte("record one"), []byte("record two")}); err != nil {
				t.Fatal(err)
			}
			blob, err := s.Load("blob")
			if err != nil {
				t.Fatal(err)
			}
			clear(blob)
			records, err := s.LoadLog("log")
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range records {
				clear(rec)
			}
			if blob, err := s.Load("blob"); err != nil || string(blob) != "sealed blob" {
				t.Fatalf("Load after the caller overwrote its copy = %q, %v", blob, err)
			}
			if records, err := s.LoadLog("log"); err != nil || len(records) != 2 || string(records[0]) != "record one" || string(records[1]) != "record two" {
				t.Fatalf("LoadLog after the caller overwrote its copy = %q, %v", records, err)
			}
		})
	}
	// The rollback adversary's pinned versions are served as copies too.
	rs := NewRollbackStore(NewMemStore())
	for _, v := range []string{"old", "new"} {
		if err := rs.Store("blob", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	rs.RollbackBy("blob", 1)
	blob, _ := rs.Load("blob")
	clear(blob)
	if blob, _ := rs.Load("blob"); string(blob) != "old" {
		t.Fatalf("pinned Load after the caller overwrote its copy = %q", blob)
	}
}
