package wire

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// A crash can leave a zero-filled tail behind the last complete append
// (the file was extended before its data reached the disk). Sealed records
// are never empty, so the zeros are a torn tail, not a run of empty
// records for the restart fold to reject.
func TestLogFramesZeroTailIsTorn(t *testing.T) {
	var stream []byte
	for _, rec := range []string{"first", "second"} {
		stream = AppendLogFrame(stream, []byte(rec))
	}
	for _, zeros := range []int{1, 3, 4, 5, 4096} {
		got := SplitLogFrames(append(bytes.Clone(stream), make([]byte, zeros)...))
		if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" {
			t.Fatalf("%d zero bytes after two records: split = %q", zeros, got)
		}
	}
	// Nothing after a zero-length frame is read, even a well-formed frame.
	tail := AppendLogFrame([]byte{0, 0, 0, 0}, []byte("after"))
	if got := SplitLogFrames(append(bytes.Clone(stream), tail...)); len(got) != 2 {
		t.Fatalf("records after a zero-length frame were read: %q", got)
	}
}

// FuzzSplitLogFrames: no panic; the bytes allocated are bounded by the
// input's length, whatever its headers announce; every record is
// non-empty and re-frames to a prefix of the input, and the rest is a
// torn tail (short header, zero length, or a length past the end).
func FuzzSplitLogFrames(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendLogFrame(AppendLogFrame(nil, []byte("a")), []byte("bc")))
	f.Add(append(AppendLogFrame(nil, []byte("rec")), make([]byte, 16)...))
	f.Add(append(AppendLogFrame(nil, []byte("rec")), 0, 0, 0, 99, 'x'))
	f.Add(binary.BigEndian.AppendUint32(nil, 0xFFFFFFF0))
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		records := SplitLogFrames(raw)
		runtime.ReadMemStats(&after)
		// Payload copies plus the result slice (≤ len/5 records, one
		// 24-byte header each, doubled by append's growth).
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(12*len(raw)+64<<10); alloc > bound {
			t.Fatalf("split of %d bytes allocated %d bytes, bound %d", len(raw), alloc, bound)
		}
		var reframed []byte
		for i, rec := range records {
			if len(rec) == 0 {
				t.Fatalf("record %d is empty", i)
			}
			reframed = AppendLogFrame(reframed, rec)
		}
		if !bytes.HasPrefix(raw, reframed) {
			t.Fatal("re-framed records are not a prefix of the input")
		}
		if rest := raw[len(reframed):]; len(rest) >= 4 {
			if n := binary.BigEndian.Uint32(rest); n != 0 && int64(n) <= int64(len(rest)-4) {
				t.Fatalf("split stopped before a complete %d-byte frame", n)
			}
		}
	})
}
