package kvs

import (
	"bytes"
	"runtime"
	"testing"
)

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// scanDecodeBound is what decoding n bytes may allocate: the entries and
// copies the input can actually hold, never what its count announces.
func scanDecodeBound(n int) uint64 { return uint64(16*n + 64<<10) }

// A 5-byte result announcing 2^22 entries fails without reserving room
// for them (it once reserved 32 B per announced entry, 134 MB here) and
// without looping over them after the reader has failed.
func TestDecodeScanResultBoundsAnnouncedCount(t *testing.T) {
	b := []byte{statusOK, 0x00, 0x40, 0x00, 0x00} // 1<<22 entries, none present
	var err error
	if alloc := allocated(func() { _, err = DecodeScanResult(b) }); alloc > scanDecodeBound(len(b)) {
		t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(b), alloc, scanDecodeBound(len(b)))
	}
	if err == nil {
		t.Fatal("a result announcing entries it does not hold decoded")
	}
}

// FuzzDecodeScanResult: no panic; the bytes allocated are bounded by the
// input's length, whatever its count announces; and a result that decodes
// re-encodes to exactly the input.
func FuzzDecodeScanResult(f *testing.F) {
	golden := encodeScanResult([]ScanEntry{{"user01", "a"}, {"user02", ""}, {"user10", "ccc"}})
	f.Add(golden)
	f.Add(golden[:len(golden)-1])
	f.Add(encodeScanResult(nil))
	f.Add([]byte{statusNotFound, 0, 0, 0, 0})
	f.Add([]byte{statusOK, 0x00, 0x40, 0x00, 0x00})
	f.Add([]byte{statusOK, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, b []byte) {
		var (
			entries []ScanEntry
			err     error
		)
		if alloc := allocated(func() { entries, err = DecodeScanResult(b) }); alloc > scanDecodeBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(b), alloc, scanDecodeBound(len(b)))
		}
		if err != nil {
			return
		}
		if out := encodeScanResult(entries); !bytes.Equal(out, b) {
			t.Fatalf("decode/encode round trip changed the result:\n in %x\nout %x", b, out)
		}
	})
}
