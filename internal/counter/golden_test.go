package counter

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// goldenBank holds accounts and a transaction record in every state: an
// escrowed, a settled, an aborted (tombstone) and a credited one, some
// stamped by an epoch seal and some not.
func goldenBank(t *testing.T) *Bank {
	t.Helper()
	b := New()
	for i, name := range []string{"alice", "bob", "carol", "dave", "", "zed\x00"} {
		mustApply(t, b, Inc(name, int64(100*i)))
	}
	mustApply(t, b, Inc("neg", -7))
	mustApply(t, b, Transfer("bob", "carol", 25))
	mustApply(t, b, Prepare("t1", "alice", 30))
	mustApply(t, b, Prepare("t2", "bob", 10))
	mustApply(t, b, Settle("t2", "bob"))
	mustApply(t, b, Abort("t3", "carol"))
	mustApply(t, b, Credit("t4", "dave", 5))
	b.AdvanceEpoch(3)
	mustApply(t, b, Prepare("t5", "dave", 1))
	mustApply(t, b, Abort("t5", "dave"))
	mustApply(t, b, Credit("t6", "erin", 9))
	return b
}

// golden compares got with the committed testdata/name and returns the
// fixture's bytes. The fixtures were written by the code before the
// keyed-state substrate (service.Keyed) and are never rewritten: a byte
// change fails these tests, and an intended format change adds a new,
// versioned fixture beside them.
func golden(t *testing.T, name string, got []byte) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s changed:\n got %x\nwant %x", name, got, want)
	}
	return want
}

func snapshotOf(t *testing.T, b *Bank) []byte {
	t.Helper()
	snap, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func restored(t *testing.T, snapshot []byte) *Bank {
	t.Helper()
	b := New()
	if err := b.Restore(snapshot); err != nil {
		t.Fatal(err)
	}
	return b
}

// The committed snapshot decodes and re-encodes to the same bytes, and
// the code still writes them.
func TestGoldenSnapshot(t *testing.T) {
	want := golden(t, "snapshot.bin", snapshotOf(t, goldenBank(t)))
	if got := snapshotOf(t, restored(t, want)); !bytes.Equal(got, want) {
		t.Fatalf("restore → snapshot changed the bytes:\n got %x\nwant %x", got, want)
	}
}

// The committed 3-way fragments are what the code writes, each decodes
// and re-encodes to the same bytes, and their merge is the snapshot.
func TestGoldenFragments(t *testing.T) {
	frags, err := goldenBank(t).PartitionState(3)
	if err != nil {
		t.Fatal(err)
	}
	for j, frag := range frags {
		want := golden(t, fmt.Sprintf("fragment-%d-of-3.bin", j), frag)
		if got := snapshotOf(t, restored(t, want)); !bytes.Equal(got, want) {
			t.Fatalf("fragment %d: restore → snapshot changed the bytes", j)
		}
	}
	merged := New()
	if err := merged.MergeState(frags); err != nil {
		t.Fatal(err)
	}
	if got, want := snapshotOf(t, merged), snapshotOf(t, goldenBank(t)); !bytes.Equal(got, want) {
		t.Fatalf("merge of the committed fragments:\n got %x\nwant %x", got, want)
	}
}
