//go:build unix

package stablestore

import (
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// Slot B's operations complete while slot A is busy inside its own I/O.
// A's blob temp file is a FIFO nobody drains, so a Store larger than the
// pipe buffer stays parked — first in open(2) until the test opens the
// read end, then in write(2) — under A's lock for as long as the test
// likes. With one store-wide lock every call below would wait for it.
func TestFileStoreConcurrentSlotBusy(t *testing.T) {
	dir := t.TempDir()
	fs, err := NewFileStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	fifo := filepath.Join(dir, "a.blob.tmp")
	if err := syscall.Mkfifo(fifo, 0o644); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	stored := make(chan error, 1)
	go func() { stored <- fs.Store("a", make([]byte, 1<<20)) }()
	// Opening the read end returns once the Store has opened the write
	// end, which it does with A's lock held.
	drain, err := os.Open(fifo)
	if err != nil {
		t.Fatal(err)
	}
	defer drain.Close()

	others := make(chan error, 1)
	go func() {
		others <- func() error {
			if err := fs.AppendGroup("b", [][]byte{seqRecord(0), seqRecord(1)}); err != nil {
				return err
			}
			if err := fs.Store("b", []byte("blob")); err != nil {
				return err
			}
			if _, err := fs.Load("b"); err != nil {
				return err
			}
			if records, err := fs.LoadLog("b"); err != nil || len(records) != 2 {
				return err
			}
			if err := ScanLog(fs, "b", func([]byte) error { return nil }); err != nil {
				return err
			}
			return fs.TruncateLog("b")
		}()
	}()
	select {
	case err := <-others:
		if err != nil {
			t.Fatalf("slot b while slot a is busy: %v", err)
		}
	case err := <-stored:
		t.Fatalf("the Store to slot a was meant to stay parked, returned %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("slot b's operations waited for slot a's write")
	}

	if _, err := io.Copy(io.Discard, io.LimitReader(drain, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := <-stored; err != nil {
		t.Fatalf("Store to slot a: %v", err)
	}
}
