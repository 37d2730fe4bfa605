package wire

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

func TestMultiShardFrameRoundTrip(t *testing.T) {
	parts := []ShardPart{
		{Shard: 0, Payload: []byte("alpha")},
		{Shard: 7, Payload: nil},
		{Shard: 255, Payload: []byte("z")},
	}
	frame := EncodeMultiShardFrame(3, parts)
	kind, payload, err := DecodeFrame(frame)
	if err != nil || kind != FrameMultiInvoke {
		t.Fatalf("frame kind = %d, err %v", kind, err)
	}
	gen, got, err := DecodeMultiShardParts(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 3 {
		t.Fatalf("decoded gen = %d, want 3", gen)
	}
	if len(got) != len(parts) {
		t.Fatalf("decoded %d parts, want %d", len(got), len(parts))
	}
	for i, p := range got {
		if p.Shard != parts[i].Shard || !bytes.Equal(p.Payload, parts[i].Payload) {
			t.Fatalf("part %d = %+v, want %+v", i, p, parts[i])
		}
	}
}

func TestMultiShardFrameRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeMultiShardParts([]byte{3, 0}); err == nil {
		t.Fatal("truncated multi-shard frame accepted")
	}
	// Trailing bytes after the declared parts are an error too.
	frame := EncodeMultiShardFrame(0, []ShardPart{{Shard: 1, Payload: []byte("x")}})
	if _, _, err := DecodeMultiShardParts(append(frame[1:], 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestMultiResponseRoundTrip(t *testing.T) {
	parts := [][]byte{
		OKFrame([]byte("reply-0")),
		ErrorFrame(errors.New("shard 1 halted")),
		OKFrame(nil),
	}
	got, err := DecodeMultiResponse(EncodeMultiResponse(parts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(parts) {
		t.Fatalf("decoded %d parts, want %d", len(got), len(parts))
	}
	// Each part decodes independently: an error part fails its own
	// DecodeResponse without touching its siblings.
	if payload, err := DecodeResponse(got[0]); err != nil || string(payload) != "reply-0" {
		t.Fatalf("part 0 = %q, %v", payload, err)
	}
	if _, err := DecodeResponse(got[1]); err == nil {
		t.Fatal("error part decoded as success")
	}
	if _, err := DecodeResponse(got[2]); err != nil {
		t.Fatalf("empty OK part: %v", err)
	}
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeMultiShardParts: no panic; the bytes allocated are bounded by
// the payload's length, whatever its u16 count announces; and a payload
// that decodes re-encodes to exactly itself.
func FuzzDecodeMultiShardParts(f *testing.F) {
	f.Add(EncodeMultiShardFrame(3, []ShardPart{{Shard: 0, Payload: []byte("alpha")}, {Shard: 7}, {Shard: 255, Payload: []byte("z")}})[1:])
	f.Add(EncodeMultiShardFrame(0, nil)[1:])
	f.Add([]byte{3, 0})
	f.Add(append(EncodeMultiShardFrame(0, []ShardPart{{Shard: 1, Payload: []byte("x")}})[1:], 0xFF))
	f.Add([]byte{0, 0, 0, 1, 0xFF, 0xFF, 0}) // 65 535 parts announced in 7 bytes
	f.Fuzz(func(t *testing.T, payload []byte) {
		var (
			gen   uint32
			parts []ShardPart
			err   error
		)
		// Part headers (≤ len/5, 32 bytes each) plus payload copies.
		if alloc, bound := allocated(func() { gen, parts, err = DecodeMultiShardParts(payload) }), uint64(16*len(payload)+64<<10); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(payload), alloc, bound)
		}
		if err != nil {
			return
		}
		if frame := EncodeMultiShardFrame(gen, parts); !bytes.Equal(frame[1:], payload) || frame[0] != FrameMultiInvoke {
			t.Fatalf("decode/encode round trip changed the payload:\n in %x\nout %x", payload, frame[1:])
		}
	})
}

// FuzzDecodeMultiResponse: the same three oracles for the client's side of
// a scatter-gather request.
func FuzzDecodeMultiResponse(f *testing.F) {
	f.Add(EncodeMultiResponse([][]byte{OKFrame([]byte("reply-0")), ErrorFrame(errors.New("shard 1 halted")), OKFrame(nil)}))
	f.Add(EncodeMultiResponse(nil))
	f.Add([]byte{0, 1, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0, 0, 0}) // 65 535 parts announced in 5 bytes
	f.Fuzz(func(t *testing.T, payload []byte) {
		var (
			parts [][]byte
			err   error
		)
		// Part headers (≤ len/4, 24 bytes each) plus payload copies.
		if alloc, bound := allocated(func() { parts, err = DecodeMultiResponse(payload) }), uint64(16*len(payload)+64<<10); alloc > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(payload), alloc, bound)
		}
		if err != nil {
			return
		}
		if out := EncodeMultiResponse(parts); !bytes.Equal(out, payload) {
			t.Fatalf("decode/encode round trip changed the payload:\n in %x\nout %x", payload, out)
		}
	})
}
