package core

import (
	"bytes"
	"testing"
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
