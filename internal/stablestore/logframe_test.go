package stablestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// splitFrames cuts an in-memory frame stream into records and returns the
// length of the complete frames.
func splitFrames(raw []byte) (records [][]byte, end int64) {
	end, _ = scanFrames(bytes.NewReader(raw), int64(len(raw)), func(rec []byte) error {
		records = append(records, rec)
		return nil
	})
	return records, end
}

// splitLog cuts an in-memory log file into records and returns the end of
// its complete frames.
func splitLog(raw []byte) (records [][]byte, end int64, err error) {
	_, end, err = scanLog(bytes.NewReader(raw), int64(len(raw)), func(rec []byte) error {
		records = append(records, rec)
		return nil
	})
	return records, end, err
}

// frameStream frames records into one log stream.
func frameStream(records ...string) []byte {
	var stream []byte
	for _, rec := range records {
		stream = appendFrame(stream, []byte(rec))
	}
	return stream
}

func TestLogFramesRoundTrip(t *testing.T) {
	records := []string{"a", "b", "longer-record-payload"}
	stream := frameStream(records...)
	got, end := splitFrames(stream)
	if len(got) != len(records) || end != int64(len(stream)) {
		t.Fatalf("split = %d records ending at %d, want %d ending at %d", len(got), end, len(records), len(stream))
	}
	for i, rec := range got {
		if string(rec) != records[i] || cap(rec) != len(rec) {
			t.Fatalf("record %d = %q (cap %d), want %q", i, rec, cap(rec), records[i])
		}
	}
	// A torn tail (any strict prefix cutting into the last frame) drops
	// exactly the last record, and so does any byte flipped in its payload.
	last := frameHeader + len(records[2])
	for cut := 1; cut <= last; cut++ {
		if torn, end := splitFrames(stream[:len(stream)-cut]); len(torn) != 2 || end != int64(len(stream)-last) {
			t.Fatalf("cut %d: %d records survive ending at %d, want 2", cut, len(torn), end)
		}
	}
	for i := len(stream) - len(records[2]); i < len(stream); i++ {
		flipped := bytes.Clone(stream)
		flipped[i] ^= 0xFF
		if torn, _ := splitFrames(flipped); len(torn) != 2 {
			t.Fatalf("payload byte %d flipped: %d records survive, want 2", i, len(torn))
		}
	}
	if got, end := splitFrames(nil); len(got) != 0 || end != 0 {
		t.Fatalf("empty stream = %d records ending at %d", len(got), end)
	}
}

// A log's tail is zeros: the extent written ahead of the frames, or a
// crash that persisted the file's size before its data. Sealed records
// are never empty, so zeros end the stream; and a frame whose header
// reached the disk but whose payload did not fails its checksum.
func TestLogFramesZeroTailIsTorn(t *testing.T) {
	stream := frameStream("first", "second")
	for _, zeros := range []int{1, 3, 4, 5, 8, 9, 4096, logExtent} {
		got, end := splitFrames(append(bytes.Clone(stream), make([]byte, zeros)...))
		if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" || end != int64(len(stream)) {
			t.Fatalf("%d zero bytes after two records: split = %q ending at %d", zeros, got, end)
		}
	}
	// Nothing after a zero-length frame is read, even a well-formed frame.
	tail := appendFrame(make([]byte, frameHeader), []byte("after"))
	if got, _ := splitFrames(append(bytes.Clone(stream), tail...)); len(got) != 2 {
		t.Fatalf("records after a zero-length frame were read: %q", got)
	}
	// A full-length frame whose payload is still zeros is torn.
	zeroed := frameStream("first", "second", "third")
	clear(zeroed[len(zeroed)-len("third"):])
	if got, _ := splitFrames(zeroed); len(got) != 2 {
		t.Fatalf("a zero-filled payload behind a valid header was read: %q", got)
	}
}

// FuzzSplitLogFrames: no panic; the bytes allocated are bounded by the
// input's length, whatever its headers announce; a file that is neither
// empty nor headed by LogHeader fails with ErrLogVersion; every record is
// non-empty and re-frames to the prefix the splitter reports, and the rest
// is a torn tail (short header, zero length, a length past the end, or a
// checksum mismatch). Every seed is added with and without the header.
func FuzzSplitLogFrames(f *testing.F) {
	zeroed := frameStream("rec", "zeroed")
	clear(zeroed[len(zeroed)-len("zeroed"):])
	for _, frames := range [][]byte{
		{},
		frameStream("a", "bc"),
		append(frameStream("rec"), make([]byte, 16)...),
		append(frameStream("rec"), 0, 0, 0, 99, 1, 2, 3, 4, 'x'),
		binary.BigEndian.AppendUint64(nil, 0xFFFFFFF0_00000000),
		zeroed,
		append(frameStream("rec"), "garbage behind a valid frame"...),
		append(frameStream("rec"), make([]byte, logExtent)...),
	} {
		f.Add(frames)
		f.Add(append([]byte(LogHeader), frames...))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var (
			records [][]byte
			end     int64
			err     error
		)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		records, end, err = splitLog(raw)
		runtime.ReadMemStats(&after)
		// The result slice: ≤ len/9 records, one 24-byte header each,
		// doubled by append's growth.
		if alloc, bound := after.TotalAlloc-before.TotalAlloc, uint64(12*len(raw)+64<<10); alloc > bound {
			t.Fatalf("split of %d bytes allocated %d bytes, bound %d", len(raw), alloc, bound)
		}
		headed := bytes.HasPrefix(raw, []byte(LogHeader))
		if err != nil {
			if headed || !errors.Is(err, ErrLogVersion) {
				t.Fatalf("split of a %d-byte file (headed %v): %v", len(raw), headed, err)
			}
			return
		}
		if !headed {
			if len(records) != 0 || end != 0 {
				t.Fatalf("a file without its header split into %d records", len(records))
			}
			return
		}
		reframed := []byte(LogHeader)
		for i, rec := range records {
			if len(rec) == 0 {
				t.Fatalf("record %d is empty", i)
			}
			reframed = appendFrame(reframed, rec)
		}
		if !bytes.HasPrefix(raw, reframed) || end != int64(len(reframed)) {
			t.Fatalf("re-framed records (%d bytes) are not the %d-byte prefix the split reports", len(reframed), end)
		}
		if rest := raw[end:]; len(rest) >= frameHeader {
			n := int(binary.BigEndian.Uint32(rest))
			if n != 0 && n <= len(rest)-frameHeader && crc32.Checksum(rest[frameHeader:frameHeader+n], castagnoli) == binary.BigEndian.Uint32(rest[4:]) {
				t.Fatalf("split stopped before a complete %d-byte frame", n)
			}
		}
	})
}
