//go:build unix

package stablestore

import (
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// Slot B's operations complete while slot A is busy inside its own I/O.
// A's blob temp file is a FIFO nobody drains, so a Store larger than the
// pipe buffer stays parked — first in open(2) until the test opens the
// read end, then in write(2) — under A's lock for as long as the test
// likes. Meanwhile the locks slot B's calls take — the store mutex and
// B's own slot mutex — must be free, which the test checks without a
// clock; with one store-wide lock every call below would wait.
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
	if err := fs.Store("b", []byte("blob")); err != nil { // b's slot entry
		t.Fatal(err)
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
	if !fs.mu.TryLock() {
		t.Fatal("slot a's write holds the store mutex, which every slot's calls take")
	}
	b := fs.slots["b"]
	fs.mu.Unlock()
	if b == nil || !b.mu.TryLock() {
		t.Fatal("slot a's write holds the lock slot b's calls take")
	}
	b.mu.Unlock()

	if err := fs.AppendGroup("b", [][]byte{seqRecord(0), seqRecord(1)}); err != nil {
		t.Fatal(err)
	}
	if err := fs.Store("b", []byte("blob")); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Load("b"); err != nil {
		t.Fatal(err)
	}
	if records, err := fs.LoadLog("b"); err != nil || len(records) != 2 {
		t.Fatalf("LoadLog(b) = %d records, %v", len(records), err)
	}
	if err := ScanLog(fs, "b", func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := fs.TruncateLog("b"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-stored:
		t.Fatalf("the Store to slot a was meant to stay parked, returned %v", err)
	default:
	}

	if _, err := io.Copy(io.Discard, io.LimitReader(drain, 1<<20)); err != nil {
		t.Fatal(err)
	}
	if err := <-stored; err != nil {
		t.Fatalf("Store to slot a: %v", err)
	}
}
