package core

import (
	"bytes"
	"fmt"
	"testing"

	"lcm/internal/aead"
	"lcm/internal/kvs"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
)

func TestReshardHandoffCodecRoundTrip(t *testing.T) {
	h := goldenReshardHandoff()
	got, err := decodeReshardHandoff(h.encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Gen != h.Gen || got.OldShards != h.OldShards || got.NewShards != h.NewShards ||
		got.Src != h.Src || got.Seq != h.Seq || got.Head != h.Head {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(got.Entries))
	}
	for i := range h.Entries {
		want, e := h.Entries[i], got.Entries[i]
		if e.ID != want.ID || e.TA != want.TA || e.HA != want.HA || e.T != want.T || e.H != want.H {
			t.Errorf("entry %d context mismatch: %+v", i, e)
		}
		if !bytes.Equal(e.LastReply, want.LastReply) {
			t.Errorf("entry %d LastReply = %q, want %q", i, e.LastReply, want.LastReply)
		}
	}
	if len(got.NewKCs) != 2 || !bytes.Equal(got.NewKCs[1], []byte{8, 8}) {
		t.Fatalf("NewKCs mismatch: %v", got.NewKCs)
	}
}

// reshardSeeds moves a two-client kvs context twice — a migration (one
// target on another platform) and a 1→2 reshard — with client 2's put
// executed before the freeze and its reply lost, and returns the reshard
// info each move's host serves and the plaintext of each handoff.
func reshardSeeds(f *testing.F) (infos, handoffs [][]byte) {
	for _, n := range []int{1, 2} {
		r := newRig(f, []uint32{1, 2})
		r.mustPut(1, "k", "v1")
		inv, err := r.clients[2].Invoke(kvs.Put("k", "v2"))
		if err != nil {
			f.Fatal(err)
		}
		if err := r.persistBatch(r.call(inv)); err != nil {
			f.Fatal(err)
		}
		platform := r.platform
		if n == 1 {
			if platform, err = tee.NewPlatform(fmt.Sprintf("plat-seed-%d", n)); err != nil {
				f.Fatal(err)
			}
			r.attestation.Register(platform)
		}
		cfg := kvsConfig()
		cfg.Attestation = r.attestation
		targets, stores := make([]*tee.Enclave, n), make([]stablestore.Store, n)
		for j := range targets {
			stores[j] = stablestore.NewMemStore()
			targets[j] = platform.NewEnclave(NewTrustedFactory(cfg), stores[j])
			if err := targets[j].Start(); err != nil {
				f.Fatal(err)
			}
		}
		_, export, err := r.reshardOnto(targets, stores, nil, nil)
		if err != nil {
			f.Fatal(err)
		}
		info := ReshardInfo{Gen: 1, OldShards: 1, NewShards: n, Handoffs: [][]byte{export.Handoff}}
		plain, err := aead.Open(r.admin.CommunicationKey(), export.Handoff, []byte(adReshardHandoff))
		if err != nil {
			f.Fatal(err)
		}
		infos, handoffs = append(infos, info.Encode()), append(handoffs, plain)
	}
	return infos, handoffs
}

// FuzzDecodeReshardInfo: a client parses the host's reshard info before
// any AEAD check, at every reshard and migration. Oracles: no panic; the
// bytes allocated are bounded by the input's length, whatever its counts
// announce; and what decodes re-encodes to exactly the input.
func FuzzDecodeReshardInfo(f *testing.F) {
	infos, _ := reshardSeeds(f)
	const handoffs = 8 + 4 + 4 // the handoff count's offset
	for _, b := range infos {
		f.Add(b)
		f.Add(b[:len(b)-1])
		f.Add(withCount(b, handoffs, 1<<24))
		f.Add(withCount(b, handoffs, 0xFFFFFFFF))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		var (
			info *ReshardInfo
			err  error
		)
		if alloc, _ := allocated(func() { info, err = DecodeReshardInfo(b) }); alloc > decodeBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(b), alloc, decodeBound(len(b)))
		}
		if err != nil {
			return
		}
		if out := info.Encode(); !bytes.Equal(out, b) {
			t.Fatalf("decode/encode round trip changed the info:\n in %x\nout %x", b, out)
		}
	})
}
