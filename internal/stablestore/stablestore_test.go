package stablestore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
)

// storeFactories enumerates the real Store implementations so the contract
// tests run against each.
func storeFactories(t *testing.T) map[string]func() Store {
	t.Helper()
	return map[string]func() Store{
		"mem": func() Store { return NewMemStore() },
		"file": func() Store {
			fs, err := NewFileStore(t.TempDir(), false, nil)
			if err != nil {
				t.Fatalf("NewFileStore: %v", err)
			}
			return fs
		},
		"file-sync": func() Store {
			fs, err := NewFileStore(t.TempDir(), true, nil)
			if err != nil {
				t.Fatalf("NewFileStore: %v", err)
			}
			return fs
		},
		"rollback-idle": func() Store { return NewRollbackStore(NewMemStore()) },
		"crash-idle":    func() Store { return NewCrashStore(NewMemStore()) },
	}
}

func TestStoreContract(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()

			if _, err := s.Load("missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Load(missing) = %v, want ErrNotFound", err)
			}

			if err := s.Store("state", []byte("v1")); err != nil {
				t.Fatalf("Store: %v", err)
			}
			got, err := s.Load("state")
			if err != nil || !bytes.Equal(got, []byte("v1")) {
				t.Fatalf("Load = %q, %v", got, err)
			}

			// Most recent write wins.
			if err := s.Store("state", []byte("v2")); err != nil {
				t.Fatalf("Store: %v", err)
			}
			got, _ = s.Load("state")
			if !bytes.Equal(got, []byte("v2")) {
				t.Fatalf("Load after overwrite = %q, want v2", got)
			}

			// Slots are independent.
			if err := s.Store("key", []byte("k")); err != nil {
				t.Fatalf("Store: %v", err)
			}
			got, _ = s.Load("state")
			if !bytes.Equal(got, []byte("v2")) {
				t.Fatal("writing one slot disturbed another")
			}

			// Empty blob round-trips.
			if err := s.Store("empty", nil); err != nil {
				t.Fatalf("Store(nil): %v", err)
			}
			got, err = s.Load("empty")
			if err != nil || len(got) != 0 {
				t.Fatalf("Load(empty) = %q, %v", got, err)
			}
		})
	}
}

func TestStoreIsolationFromCallerBuffers(t *testing.T) {
	s := NewMemStore()
	blob := []byte("original")
	if err := s.Store("slot", blob); err != nil {
		t.Fatal(err)
	}
	blob[0] = 'X' // mutate after store
	got, _ := s.Load("slot")
	if !bytes.Equal(got, []byte("original")) {
		t.Fatal("MemStore aliased the caller's buffer")
	}
	got[0] = 'Y' // mutate the loaded copy
	got2, _ := s.Load("slot")
	if !bytes.Equal(got2, []byte("original")) {
		t.Fatal("MemStore returned aliased memory from Load")
	}
}

func TestMemStoreConcurrentAccess(t *testing.T) {
	s := NewMemStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			slot := fmt.Sprintf("slot-%d", g%2)
			for i := 0; i < 200; i++ {
				if err := s.Store(slot, []byte{byte(i)}); err != nil {
					t.Errorf("Store: %v", err)
					return
				}
				if _, err := s.Load(slot); err != nil {
					t.Errorf("Load: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestFileStorePersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	fs1, err := NewFileStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs1.Store("state", []byte("survives")); err != nil {
		t.Fatal(err)
	}
	fs2, err := NewFileStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fs2.Load("state")
	if err != nil || !bytes.Equal(got, []byte("survives")) {
		t.Fatalf("reopened Load = %q, %v", got, err)
	}
}

func TestFileStoreSanitizesSlotNames(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Store("../escape/attempt", []byte("x")); err != nil {
		t.Fatalf("Store with hostile slot name: %v", err)
	}
	got, err := fs.Load("../escape/attempt")
	if err != nil || !bytes.Equal(got, []byte("x")) {
		t.Fatalf("Load with hostile slot name = %q, %v", got, err)
	}
}

func TestFileStoreSlots(t *testing.T) {
	fs, err := NewFileStore(t.TempDir(), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, slot := range []string{"b", "a", "c"} {
		if err := fs.Store(slot, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.Slots()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("Slots = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slots = %v, want %v", got, want)
		}
	}
}

func TestRollbackStoreServesStaleVersion(t *testing.T) {
	rs := NewRollbackStore(NewMemStore())
	for i := 1; i <= 3; i++ {
		if err := rs.Store("state", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if rs.Versions("state") != 3 {
		t.Fatalf("Versions = %d, want 3", rs.Versions("state"))
	}

	// Idle: latest version.
	got, _ := rs.Load("state")
	if !bytes.Equal(got, []byte{3}) {
		t.Fatalf("idle Load = %v, want [3]", got)
	}

	// Attack: serve version 0 (the oldest).
	if !rs.RollbackTo("state", 0) {
		t.Fatal("RollbackTo rejected valid index")
	}
	got, _ = rs.Load("state")
	if !bytes.Equal(got, []byte{1}) {
		t.Fatalf("rolled-back Load = %v, want [1]", got)
	}

	// RollbackBy counts from the end.
	if !rs.RollbackBy("state", 1) {
		t.Fatal("RollbackBy rejected valid offset")
	}
	got, _ = rs.Load("state")
	if !bytes.Equal(got, []byte{2}) {
		t.Fatalf("RollbackBy(1) Load = %v, want [2]", got)
	}

	// Clearing the attack restores honest behaviour.
	rs.ClearAttack()
	got, _ = rs.Load("state")
	if !bytes.Equal(got, []byte{3}) {
		t.Fatalf("post-attack Load = %v, want [3]", got)
	}
}

func TestRollbackStoreRejectsInvalidIndices(t *testing.T) {
	rs := NewRollbackStore(NewMemStore())
	if rs.RollbackTo("state", 0) {
		t.Fatal("RollbackTo succeeded with no history")
	}
	rs.Store("state", []byte("v"))
	if rs.RollbackTo("state", 1) || rs.RollbackTo("state", -1) {
		t.Fatal("RollbackTo accepted out-of-range index")
	}
	if rs.RollbackBy("state", 5) {
		t.Fatal("RollbackBy accepted offset beyond history")
	}
}

func TestRollbackStoreDropWrites(t *testing.T) {
	rs := NewRollbackStore(NewMemStore())
	rs.Store("state", []byte("v1"))
	rs.DropWrites(true)
	if err := rs.Store("state", []byte("v2")); err != nil {
		t.Fatalf("dropped Store must still acknowledge: %v", err)
	}
	got, _ := rs.Load("state")
	if !bytes.Equal(got, []byte("v1")) {
		t.Fatalf("Load after dropped write = %q, want v1", got)
	}
	// History still records the attempted write so the attacker can
	// replay it later if useful.
	if rs.Versions("state") != 2 {
		t.Fatalf("Versions = %d, want 2", rs.Versions("state"))
	}
}

func TestCrashStoreFailsOnSchedule(t *testing.T) {
	cs := NewCrashStore(NewMemStore())
	cs.FailAfter(2)
	if err := cs.Store("s", []byte("1")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	if err := cs.Store("s", []byte("2")); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	if err := cs.Store("s", []byte("3")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write 3 = %v, want ErrCrashed", err)
	}
	// Loads keep working (the disk did not vanish; the process crashed).
	got, err := cs.Load("s")
	if err != nil || !bytes.Equal(got, []byte("2")) {
		t.Fatalf("Load = %q, %v; want last persisted value", got, err)
	}
	cs.Reset()
	if err := cs.Store("s", []byte("4")); err != nil {
		t.Fatalf("write after Reset: %v", err)
	}
}

// ---- Log-slot API (the delta-log substrate) ----

func TestLogContract(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()

			// A never-written log is empty, not an error.
			log, err := s.LoadLog("deltas")
			if err != nil {
				t.Fatalf("LoadLog empty: %v", err)
			}
			if len(log) != 0 {
				t.Fatalf("empty log has %d records", len(log))
			}

			// Appends come back in order, with contents intact.
			for i := 0; i < 5; i++ {
				if err := s.Append("deltas", []byte(fmt.Sprintf("rec-%d", i))); err != nil {
					t.Fatalf("Append %d: %v", i, err)
				}
			}
			log, err = s.LoadLog("deltas")
			if err != nil {
				t.Fatalf("LoadLog: %v", err)
			}
			if len(log) != 5 {
				t.Fatalf("log length = %d, want 5", len(log))
			}
			for i, rec := range log {
				if want := fmt.Sprintf("rec-%d", i); string(rec) != want {
					t.Fatalf("record %d = %q, want %q", i, rec, want)
				}
			}

			// Log and blob slots of the same name are distinct objects.
			if err := s.Store("deltas", []byte("blob")); err != nil {
				t.Fatalf("Store same-name blob: %v", err)
			}
			log, _ = s.LoadLog("deltas")
			if len(log) != 5 {
				t.Fatalf("blob store disturbed the log: %d records", len(log))
			}

			// Truncation empties the log and appending restarts cleanly.
			if err := s.TruncateLog("deltas"); err != nil {
				t.Fatalf("TruncateLog: %v", err)
			}
			log, _ = s.LoadLog("deltas")
			if len(log) != 0 {
				t.Fatalf("log after truncate has %d records", len(log))
			}
			if err := s.Append("deltas", []byte("fresh")); err != nil {
				t.Fatalf("Append after truncate: %v", err)
			}
			log, _ = s.LoadLog("deltas")
			if len(log) != 1 || string(log[0]) != "fresh" {
				t.Fatalf("log after truncate+append = %q", log)
			}
			blob, err := s.Load("deltas")
			if err != nil || !bytes.Equal(blob, []byte("blob")) {
				t.Fatalf("blob slot disturbed by log ops: %q, %v", blob, err)
			}
		})
	}
}

// A FileStore log survives reopening the store (a host restart), and a
// torn trailing record — a crash mid-append — is dropped rather than
// corrupting the log.
func TestFileStoreLogReopenAndTornTail(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := fs.Append("lcm-deltalog", []byte(fmt.Sprintf("record-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// "Crash": a second FileStore over the same directory must see the
	// same log.
	fs2, err := NewFileStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	log, err := fs2.LoadLog("lcm-deltalog")
	if err != nil || len(log) != 3 {
		t.Fatalf("reopened log = %d records, %v; want 3", len(log), err)
	}

	// Tear the tail: append a record, then cut the file inside its frame
	// as a crash mid-write would.
	if err := fs2.Append("lcm-deltalog", []byte("torn-record")); err != nil {
		t.Fatal(err)
	}
	log, err = tornRestart(t, fs2, "lcm-deltalog", 4, nil).LoadLog("lcm-deltalog")
	if err != nil {
		t.Fatalf("LoadLog with torn tail: %v", err)
	}
	if len(log) != 3 {
		t.Fatalf("torn tail not dropped: %d records", len(log))
	}
	for i, rec := range log {
		if want := fmt.Sprintf("record-%d", i); string(rec) != want {
			t.Fatalf("record %d = %q after torn tail", i, rec)
		}
	}
}

// tornRestart simulates a crash in the middle of an append to slot's log:
// the file ends cut bytes before s's complete frames end, with tail
// written from there on. It returns a FileStore reopened over the
// directory — the restarted host.
func tornRestart(t *testing.T, s *FileStore, slot string, cut int64, tail []byte) *FileStore {
	t.Helper()
	sl := s.lock(slot)
	end := sl.off - cut
	sl.closeLog()
	sl.mu.Unlock()
	f, err := os.OpenFile(s.logPath(slot), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Truncate(end); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(tail, end); err != nil {
		t.Fatal(err)
	}
	restarted, err := NewFileStore(s.dir, s.sync, nil)
	if err != nil {
		t.Fatal(err)
	}
	return restarted
}

// Golden: an append after a crash that left a torn tail lands behind the
// last complete frame, so a reopen returns every record — before and
// after the crash. Appending behind the torn bytes would bury the new
// records inside the torn frame and lose them at the next restart.
func TestFileStoreAppendAfterTornTail(t *testing.T) {
	for _, torn := range []struct {
		name string
		tail []byte
	}{
		{"short payload", []byte{0, 0, 0, 100, 1, 2, 3, 4, 'x', 'y', 'z'}},
		{"short header", []byte{0, 0}},
		{"zero filled", make([]byte, 12)},
	} {
		t.Run(torn.name, func(t *testing.T) {
			dir := t.TempDir()
			fs, err := NewFileStore(dir, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := fs.AppendGroup("lcm-deltalog", [][]byte{[]byte("r0"), []byte("r1")}); err != nil {
				t.Fatal(err)
			}

			// Restart: a fresh store over the directory appends once more.
			fs2 := tornRestart(t, fs, "lcm-deltalog", 0, torn.tail)
			if err := fs2.AppendGroup("lcm-deltalog", [][]byte{[]byte("r2"), []byte("r3")}); err != nil {
				t.Fatal(err)
			}
			fs3, err := NewFileStore(dir, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			log, err := fs3.LoadLog("lcm-deltalog")
			if err != nil {
				t.Fatal(err)
			}
			got := make([]string, len(log))
			for i, rec := range log {
				got[i] = string(rec)
			}
			if want := []string{"r0", "r1", "r2", "r3"}; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("log after torn tail + append = %q, want %q", got, want)
			}
		})
	}
}

// logRecords returns slot's records as LoadLog and as ScanLog read them.
func logRecords(t *testing.T, s *FileStore, slot string) (loaded, scanned []string) {
	t.Helper()
	log, err := s.LoadLog(slot)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range log {
		loaded = append(loaded, string(rec))
	}
	if err := s.ScanLog(slot, func(rec []byte) error {
		scanned = append(scanned, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return loaded, scanned
}

// Golden: a power cut can persist a log's size before its data, leaving a
// full-length frame whose payload ends in zeros where the file keeps its
// size. Both readers stop before that frame, the next append overwrites
// it, and a reopen returns every acknowledged record.
func TestFileStoreTornFrameInsideFile(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	records := []string{"record-0", "record-1", "record-2 with a payload of some length"}
	end := int64(len(LogHeader))
	for _, rec := range records {
		if err := fs.Append("log", []byte(rec)); err != nil {
			t.Fatal(err)
		}
		end += frameHeader + int64(len(rec))
	}
	torn := end - frameHeader - int64(len(records[2]))
	path := fs.logPath("log")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 16), end-16); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if after, err := os.Stat(path); err != nil || after.Size() != before.Size() {
		t.Fatalf("tearing in place changed the log's size: %d -> %v (%v)", before.Size(), after, err)
	}

	want := fmt.Sprint(records[:2])
	// The live store, which reads only its complete frames, and a
	// restarted one, which reads the whole file.
	fs2, err := NewFileStore(dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*FileStore{"live": fs, "restarted": fs2} {
		if loaded, scanned := logRecords(t, s, "log"); fmt.Sprint(loaded) != want || fmt.Sprint(scanned) != want {
			t.Fatalf("%s: LoadLog %q, ScanLog %q over a torn frame, want %s", name, loaded, scanned, want)
		}
	}
	if err := fs2.Append("log", []byte("record-3")); err != nil {
		t.Fatal(err)
	}
	sl := fs2.lock("log")
	off := sl.off
	sl.mu.Unlock()
	if want := torn + frameHeader + int64(len("record-3")); off != want {
		t.Fatalf("append after the torn frame ends at %d, want %d (where the torn frame began plus one frame)", off, want)
	}
	fs3, err := NewFileStore(dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	want = fmt.Sprint([]string{records[0], records[1], "record-3"})
	if loaded, scanned := logRecords(t, fs3, "log"); fmt.Sprint(loaded) != want || fmt.Sprint(scanned) != want {
		t.Fatalf("reopened: LoadLog %q, ScanLog %q, want %s", loaded, scanned, want)
	}
}

// A failed write drops the slot's handle: the next append reopens the log,
// cuts it back to its complete frames and lands behind them, so a reopen
// returns every acknowledged record.
func TestFileStoreFailedAppendDropsHandle(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Append("log", []byte("acked-0")); err != nil {
		t.Fatal(err)
	}
	sl := fs.lock("log")
	sl.log.Close()
	sl.mu.Unlock()
	if err := fs.Append("log", []byte("failed")); err == nil {
		t.Fatal("append through a closed handle succeeded")
	}
	sl.mu.Lock()
	dropped := sl.log == nil
	sl.mu.Unlock()
	if !dropped {
		t.Fatal("a failed append kept the slot's handle")
	}
	if err := fs.Append("log", []byte("acked-1")); err != nil {
		t.Fatalf("append after a failed one: %v", err)
	}
	reopened, err := NewFileStore(dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint([]string{"acked-0", "acked-1"})
	for name, s := range map[string]*FileStore{"live": fs, "reopened": reopened} {
		if loaded, scanned := logRecords(t, s, "log"); fmt.Sprint(loaded) != want || fmt.Sprint(scanned) != want {
			t.Fatalf("%s: LoadLog %q, ScanLog %q, want %s", name, loaded, scanned, want)
		}
	}
}

// The rollback adversary can serve a truncated delta-log suffix and stops
// doing so after ClearAttack.
func TestRollbackStoreLogTruncationAttack(t *testing.T) {
	rs := NewRollbackStore(NewMemStore())
	for i := 0; i < 4; i++ {
		if err := rs.Append("log", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if rs.LogLen("log") != 4 {
		t.Fatalf("LogLen = %d", rs.LogLen("log"))
	}
	if rs.RollbackLogBy("log", 5) {
		t.Fatal("RollbackLogBy accepted more records than exist")
	}
	if !rs.RollbackLogBy("log", 2) {
		t.Fatal("RollbackLogBy rejected valid truncation")
	}
	log, err := rs.LoadLog("log")
	if err != nil || len(log) != 2 {
		t.Fatalf("attacked log = %d records, %v; want 2", len(log), err)
	}
	rs.ClearAttack()
	log, _ = rs.LoadLog("log")
	if len(log) != 4 {
		t.Fatalf("log after ClearAttack = %d records, want 4", len(log))
	}
}

// DropWrites also swallows appends — the "pretend to persist" server.
func TestRollbackStoreDropsAppends(t *testing.T) {
	rs := NewRollbackStore(NewMemStore())
	rs.Append("log", []byte("kept"))
	rs.DropWrites(true)
	if err := rs.Append("log", []byte("dropped")); err != nil {
		t.Fatalf("dropped Append must still acknowledge: %v", err)
	}
	log, _ := rs.LoadLog("log")
	if len(log) != 1 || string(log[0]) != "kept" {
		t.Fatalf("log after dropped append = %q", log)
	}
}

// Crash injection covers appends and truncations like any other write.
func TestCrashStoreFailsAppends(t *testing.T) {
	cs := NewCrashStore(NewMemStore())
	cs.FailAfter(1)
	if err := cs.Append("log", []byte("a")); err != nil {
		t.Fatalf("append 1: %v", err)
	}
	if err := cs.Append("log", []byte("b")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append 2 = %v, want ErrCrashed", err)
	}
	if err := cs.TruncateLog("log"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("truncate = %v, want ErrCrashed", err)
	}
	cs.Reset()
	log, err := cs.LoadLog("log")
	if err != nil || len(log) != 1 {
		t.Fatalf("log = %d records, %v; want the one persisted append", len(log), err)
	}
}

// AppendGroup behaves like the equivalent sequence of Appends on every
// implementation: records land in order, interleave with single appends,
// and an empty group is a no-op.
func TestAppendGroupContract(t *testing.T) {
	for name, mk := range storeFactories(t) {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if err := s.AppendGroup("deltas", nil); err != nil {
				t.Fatalf("empty group: %v", err)
			}
			if err := s.Append("deltas", []byte("solo-0")); err != nil {
				t.Fatal(err)
			}
			if err := s.AppendGroup("deltas", [][]byte{[]byte("grp-1"), []byte("grp-2"), []byte("grp-3")}); err != nil {
				t.Fatalf("AppendGroup: %v", err)
			}
			if err := s.Append("deltas", []byte("solo-4")); err != nil {
				t.Fatal(err)
			}
			log, err := s.LoadLog("deltas")
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"solo-0", "grp-1", "grp-2", "grp-3", "solo-4"}
			if len(log) != len(want) {
				t.Fatalf("log = %d records, want %d", len(log), len(want))
			}
			for i, rec := range log {
				if string(rec) != want[i] {
					t.Fatalf("record %d = %q, want %q", i, rec, want[i])
				}
			}
		})
	}
}

// A grouped append survives reopening the FileStore, and a crash that
// tears the group mid-write leaves a clean prefix — the same recovery
// contract as a torn single append.
func TestFileStoreAppendGroupReopenAndTornTail(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	group := [][]byte{[]byte("g-0"), []byte("g-1"), []byte("g-2")}
	if err := fs.AppendGroup("lcm-deltalog", group); err != nil {
		t.Fatal(err)
	}
	fs2, err := NewFileStore(dir, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	log, err := fs2.LoadLog("lcm-deltalog")
	if err != nil || len(log) != 3 {
		t.Fatalf("reopened grouped log = %d records, %v; want 3", len(log), err)
	}

	// Tear the group's tail: the last record's frame loses bytes; the
	// prefix records must survive.
	if err := fs2.AppendGroup("lcm-deltalog", [][]byte{[]byte("h-0"), []byte("h-1")}); err != nil {
		t.Fatal(err)
	}
	log, err = tornRestart(t, fs2, "lcm-deltalog", 2, nil).LoadLog("lcm-deltalog")
	if err != nil {
		t.Fatalf("LoadLog with torn group tail: %v", err)
	}
	if len(log) != 4 || string(log[3]) != "h-0" {
		t.Fatalf("torn group = %d records (last %q), want clean 4-record prefix", len(log), log[len(log)-1])
	}
}

// The whole group is one durability event for crash injection: a group
// never splits across the crash boundary.
func TestCrashStoreChargesGroupOnce(t *testing.T) {
	cs := NewCrashStore(NewMemStore())
	cs.FailAfter(1)
	if err := cs.AppendGroup("log", [][]byte{[]byte("a"), []byte("b"), []byte("c")}); err != nil {
		t.Fatalf("first group: %v", err)
	}
	if err := cs.AppendGroup("log", [][]byte{[]byte("d")}); !errors.Is(err, ErrCrashed) {
		t.Fatalf("second group = %v, want ErrCrashed", err)
	}
	log, err := cs.LoadLog("log")
	if err != nil || len(log) != 3 {
		t.Fatalf("log = %d records, %v; want the 3 from the surviving group", len(log), err)
	}
}

// The rollback adversary's log mirror covers grouped appends, so the
// truncation attack can cut inside a committed group.
func TestRollbackStoreGroupAppendMirrorsAndTruncates(t *testing.T) {
	rs := NewRollbackStore(NewMemStore())
	if err := rs.AppendGroup("log", [][]byte{[]byte("a"), []byte("b"), []byte("c")}); err != nil {
		t.Fatal(err)
	}
	if rs.LogLen("log") != 3 {
		t.Fatalf("mirror = %d records", rs.LogLen("log"))
	}
	if !rs.RollbackLogBy("log", 2) {
		t.Fatal("log rollback failed")
	}
	log, err := rs.LoadLog("log")
	if err != nil || len(log) != 1 || string(log[0]) != "a" {
		t.Fatalf("attacked log = %q, %v", log, err)
	}
	rs.ClearAttack()
	rs.DropWrites(true)
	if err := rs.AppendGroup("log", [][]byte{[]byte("swallowed")}); err != nil {
		t.Fatal(err)
	}
	rs.DropWrites(false)
	if rs.LogLen("log") != 3 {
		t.Fatalf("dropped group reached the mirror: %d records", rs.LogLen("log"))
	}
}

func TestNamespacedIsolation(t *testing.T) {
	base := NewMemStore()
	a := NewNamespaced(base, "shard0")
	b := NewNamespaced(base, "shard1")

	if err := a.Store("blob", []byte("A")); err != nil {
		t.Fatal(err)
	}
	if err := b.Store("blob", []byte("B")); err != nil {
		t.Fatal(err)
	}
	got, err := a.Load("blob")
	if err != nil || string(got) != "A" {
		t.Fatalf("a.Load = %q, %v", got, err)
	}
	if _, err := NewNamespaced(base, "shard2").Load("blob"); err != ErrNotFound {
		t.Fatalf("unwritten namespace Load err = %v, want ErrNotFound", err)
	}

	// Logs are namespaced too, through both append entry points.
	if err := a.Append("log", []byte("a1")); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendGroup("log", [][]byte{[]byte("b1"), []byte("b2")}); err != nil {
		t.Fatal(err)
	}
	la, _ := a.LoadLog("log")
	lb, _ := b.LoadLog("log")
	if len(la) != 1 || len(lb) != 2 {
		t.Fatalf("logs leaked between namespaces: a=%d b=%d", len(la), len(lb))
	}
	if err := a.TruncateLog("log"); err != nil {
		t.Fatal(err)
	}
	if lb2, _ := b.LoadLog("log"); len(lb2) != 2 {
		t.Fatal("truncating one namespace's log disturbed another's")
	}

	// The inner store sees the prefixed names — what shard-addressable
	// attack tooling relies on.
	if _, err := base.Load(NamespacedSlot("shard0", "blob")); err != nil {
		t.Fatalf("inner slot name: %v", err)
	}
}
