package service_test

import (
	"bytes"
	"errors"
	"os"
	"runtime"
	"testing"

	"lcm/internal/counter"
	"lcm/internal/kvs"
	"lcm/internal/service"
	"lcm/internal/wire"
)

// The services built on service.Keyed, the committed fixtures of
// their formats (written before Keyed existed), and a batch whose delta
// sets and deletes.
var keyedServices = []struct {
	name     string
	new      func() service.Service
	fixtures []string
	batch    [][]byte
}{
	{"kvs", func() service.Service { return kvs.New() }, []string{
		"../kvs/testdata/snapshot.bin", "../kvs/testdata/delta.bin",
		"../kvs/testdata/fragment-0-of-3.bin", "../kvs/testdata/fragment-1-of-3.bin", "../kvs/testdata/fragment-2-of-3.bin",
	}, [][]byte{kvs.Put("k", "value"), kvs.Put("j", "v"), kvs.Del("j")}},
	{"counter", func() service.Service { return counter.New() }, []string{
		"../counter/testdata/snapshot.bin",
		"../counter/testdata/fragment-0-of-3.bin", "../counter/testdata/fragment-1-of-3.bin", "../counter/testdata/fragment-2-of-3.bin",
	}, [][]byte{counter.Inc("a", 5), counter.Prepare("t", "a", 2), counter.Credit("u", "b", 1)}},
}

// The Keyed decoders a service exposes.
var keyedDecoders = []struct {
	name   string
	decode func(s service.Service, b []byte) error
}{
	{"restore", func(s service.Service, b []byte) error { return s.Restore(b) }},
	{"apply delta", func(s service.Service, b []byte) error { return s.(service.DeltaService).ApplyDelta(b) }},
	{"merge state", func(s service.Service, b []byte) error { return s.(service.Resharder).MergeState([][]byte{b}) }},
}

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// decodeBound is the allocation a decode of n input bytes may make.
func decodeBound(n int) uint64 { return uint64(16*n + 64<<10) }

// withCount overwrites the U32 at off.
func withCount(b []byte, off int, n uint32) []byte {
	out := bytes.Clone(b)
	out[off], out[off+1], out[off+2], out[off+3] = byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
	return out
}

// FuzzKeyedDecode: the first byte picks a service (kvs, counter) and a
// decoder (Restore, ApplyDelta, MergeState of one fragment) of a fresh
// instance, and the rest is its input. Oracles: no panic; the bytes
// allocated are bounded by the input's length, whatever its counts
// announce; and a snapshot that restores re-encodes to exactly the input.
// Seeded with the committed fixtures, their truncations and hostile
// counts.
func FuzzKeyedDecode(f *testing.F) {
	for si, svc := range keyedServices {
		for _, path := range svc.fixtures {
			fixture, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			for di := range keyedDecoders {
				pick := byte(si + len(keyedServices)*di)
				f.Add(append([]byte{pick}, fixture...))
				f.Add(append([]byte{pick}, fixture[:len(fixture)-1]...))
				f.Add(append([]byte{pick}, fixture[:len(fixture)/2]...))
				f.Add(append([]byte{pick}, withCount(fixture, 0, 1<<24)...))
				f.Add(append([]byte{pick}, withCount(fixture, 0, 0xFFFFFFFF)...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		svc := keyedServices[int(b[0])%len(keyedServices)]
		dec := keyedDecoders[int(b[0])/len(keyedServices)%len(keyedDecoders)]
		in := b[1:]
		s := svc.new()
		var err error
		if alloc := allocated(func() { err = dec.decode(s, in) }); alloc > decodeBound(len(in)) {
			t.Fatalf("%s %s: decoding %d bytes allocated %d bytes, bound %d", svc.name, dec.name, len(in), alloc, decodeBound(len(in)))
		}
		if err != nil || dec.name != "restore" {
			return
		}
		out, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("%s: restore → snapshot changed the bytes:\n in %x\nout %x", svc.name, in, out)
		}
	})
}

// A delta cut anywhere fails with the reader's error, wrapped, not as an
// unknown change kind: the decoder stops at the first decode error.
func TestKeyedTruncatedDeltaWrapsReaderError(t *testing.T) {
	for _, svc := range keyedServices {
		live := svc.new()
		for _, op := range svc.batch {
			if _, err := live.Apply(op); err != nil {
				t.Fatal(err)
			}
		}
		delta, err := live.(service.DeltaService).Delta()
		if err != nil {
			t.Fatal(err)
		}
		for cut := 1; cut < len(delta); cut++ {
			err := svc.new().(service.DeltaService).ApplyDelta(delta[:cut])
			if !errors.Is(err, wire.ErrTruncated) {
				t.Fatalf("%s: delta cut at %d of %d bytes: %v, want wire.ErrTruncated", svc.name, cut, len(delta), err)
			}
		}
	}
}
