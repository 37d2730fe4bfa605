package kvs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenStore is a fixed state: short and long keys, an empty key, an
// empty value and non-UTF-8 bytes.
func goldenStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	for i := 0; i < 12; i++ {
		mustApply(t, s, Put(fmt.Sprintf("user%02d", i), strings.Repeat(string(rune('a'+i)), 3*i)))
	}
	mustApply(t, s, Put("", "empty key"))
	mustApply(t, s, Put("bin\x00\xff", "\x00\x01\xfe"))
	mustApply(t, s, Put(strings.Repeat("k", 300), strings.Repeat("v", 1000)))
	return s
}

// goldenDeltaOps is the batch the delta fixture records: an overwrite, a
// delete, a create, a create-then-delete, a delete of a missing key and a
// read.
var goldenDeltaOps = [][]byte{
	Put("user03", "changed"), Del("user05"), Put("new", "v"), Put("gone", "x"), Del("gone"), Del("never"), Get("user01"),
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

func snapshotOf(t *testing.T, s *Store) []byte {
	t.Helper()
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func restored(t *testing.T, snapshot []byte) *Store {
	t.Helper()
	s := New()
	if err := s.Restore(snapshot); err != nil {
		t.Fatal(err)
	}
	return s
}

// The committed snapshot decodes and re-encodes to the same bytes, and
// the code still writes them.
func TestGoldenSnapshot(t *testing.T) {
	want := golden(t, "snapshot.bin", snapshotOf(t, goldenStore(t)))
	if got := snapshotOf(t, restored(t, want)); !bytes.Equal(got, want) {
		t.Fatalf("restore → snapshot changed the bytes:\n got %x\nwant %x", got, want)
	}
}

// The committed delta is what the code writes for goldenDeltaOps, and it
// folds onto the committed snapshot into the state those ops made.
func TestGoldenDelta(t *testing.T) {
	live := goldenStore(t)
	snapshotOf(t, live) // start the delta window here
	for _, op := range goldenDeltaOps {
		if _, err := live.Apply(op); err != nil {
			t.Fatal(err)
		}
	}
	want := golden(t, "delta.bin", deltaOf(t, live))
	base := restored(t, golden(t, "snapshot.bin", snapshotOf(t, goldenStore(t))))
	if err := base.ApplyDelta(want); err != nil {
		t.Fatal(err)
	}
	if got, live := snapshotOf(t, base), snapshotOf(t, live); !bytes.Equal(got, live) {
		t.Fatalf("fold of the committed delta:\n got %x\nwant %x", got, live)
	}
	if base.Footprint() != live.Footprint() {
		t.Fatalf("footprint after the fold = %d, want %d", base.Footprint(), live.Footprint())
	}
}

// The committed 3-way fragments are what the code writes, each decodes
// and re-encodes to the same bytes, and their merge is the snapshot.
func TestGoldenFragments(t *testing.T) {
	frags, err := goldenStore(t).PartitionState(3)
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
	if got, want := snapshotOf(t, merged), snapshotOf(t, goldenStore(t)); !bytes.Equal(got, want) {
		t.Fatalf("merge of the committed fragments:\n got %x\nwant %x", got, want)
	}
}
