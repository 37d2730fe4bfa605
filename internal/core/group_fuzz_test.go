package core

import (
	"bytes"
	"reflect"
	"testing"

	"lcm/internal/hashchain"
)

// The group-view decoders the fuzz target below covers, each with the
// encoder that writes what it reads. A reshard handoff reaches clients
// through the untrusted host before any check of its contents, and a
// status frame reaches admins and clients the same way.
var groupViewCodecs = []struct {
	name   string
	decode func([]byte) (any, error)
	encode func(any) []byte
}{
	{
		"reshard handoff",
		func(b []byte) (any, error) { return decodeReshardHandoff(b) },
		func(v any) []byte { return v.(*ReshardHandoff).encode() },
	},
	{
		"status",
		func(b []byte) (any, error) { return DecodeStatus(b) },
		func(v any) []byte { return encodeStatus(v.(*Status)) },
	},
	{
		"group info",
		func(b []byte) (any, error) { return decodeGroupInfo(b) },
		func(v any) []byte { return v.(*GroupInfo).encode() },
	},
}

func goldenReshardHandoff() *ReshardHandoff {
	return &ReshardHandoff{
		Gen: 3, OldShards: 2, NewShards: 4, Src: 1, Seq: 77,
		Head: hashchain.Value{1, 2, 3},
		Entries: []ReshardEntry{
			{ID: 1, TA: 5, HA: hashchain.Value{4}, T: 6, H: hashchain.Value{5}, LastReply: []byte("sealed-reply-1")},
			{ID: 2, TA: 7, HA: hashchain.Value{6}, T: 7, H: hashchain.Value{6}},
		},
		NewKCs: [][]byte{{9, 9}, {8, 8}},
	}
}

func goldenStatus() *Status {
	return &Status{
		Provisioned: true, Epoch: 2, Seq: 40, Stable: 31, AdminSeq: 3, NumClients: 5,
		Gen: 1, DeltaActive: true, ChainLen: 6, ChainBytes: 2300, SnapshotBytes: 900,
		Compactions: 2, LastCompactSeq: 30, BeaconSeq: 4, GroupEpoch: 7,
		ActiveClients: 3, Evictions: 1,
	}
}

func goldenGroupInfo() *GroupInfo {
	return &GroupInfo{
		GroupEpoch: 7, Evictions: 2,
		Members: []uint32{1, 2, 5}, Evicted: []uint32{3, 4},
		KC: make([]byte, 16),
	}
}

// FuzzDecodeGroupViews: the first byte picks a decoder (reshard handoff,
// status, group info) and the rest is its input. Oracles: no panic; the
// bytes allocated are bounded by the input's length, whatever its counts
// announce; and what decodes re-encodes to bytes that decode to the same
// value.
func FuzzDecodeGroupViews(f *testing.F) {
	goldens := [][]byte{
		goldenReshardHandoff().encode(),
		encodeStatus(goldenStatus()),
		goldenGroupInfo().encode(),
	}
	entries := 8 + 4 + 4 + 4 + 8 + 32 // the handoff's entry count
	for i, g := range goldens {
		f.Add(append([]byte{byte(i)}, g...))
		f.Add(append([]byte{byte(i)}, g[:len(g)-1]...))
		f.Add(append([]byte{byte(i)}, g[:len(g)/2]...))
	}
	f.Add(append([]byte{0}, withCount(goldens[0], entries, 1<<24)...))
	f.Add(append([]byte{0}, withCount(goldens[0], entries, 0xFFFFFFFF)...))
	f.Add(append([]byte{2}, withCount(goldens[2], 16, 1<<30)...)) // members
	for _, old := range formatFixtures(f) {
		for i := range goldens {
			f.Add(append([]byte{byte(i)}, old...))
		}
	}
	_, handoffs := reshardSeeds(f) // real handoffs, an executed op's cached reply included
	for _, h := range handoffs {
		f.Add(append([]byte{0}, h...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		codec := groupViewCodecs[int(b[0])%len(groupViewCodecs)]
		in := b[1:]
		var (
			v   any
			err error
		)
		if alloc, _ := allocated(func() { v, err = codec.decode(in) }); alloc > decodeBound(len(in)) {
			t.Fatalf("%s: decoding %d bytes allocated %d bytes, bound %d", codec.name, len(in), alloc, decodeBound(len(in)))
		}
		if err != nil {
			return
		}
		again, err := codec.decode(codec.encode(v))
		if err != nil {
			t.Fatalf("%s: re-encoded value does not decode: %v", codec.name, err)
		}
		if !reflect.DeepEqual(again, v) {
			t.Fatalf("%s: round trip changed the value:\n in %+v\nout %+v", codec.name, v, again)
		}
	})
}

// The golden encodings decode and re-encode to the same bytes.
func TestGroupViewGoldensRoundTrip(t *testing.T) {
	for i, v := range []any{goldenReshardHandoff(), goldenStatus(), goldenGroupInfo()} {
		codec := groupViewCodecs[i]
		enc := codec.encode(v)
		got, err := codec.decode(enc)
		if err != nil {
			t.Fatalf("%s: %v", codec.name, err)
		}
		if again := codec.encode(got); !bytes.Equal(again, enc) {
			t.Fatalf("%s: round trip changed the encoding:\n in %x\nout %x", codec.name, enc, again)
		}
	}
}
