package core

import (
	"errors"
	"fmt"
	"testing"

	"lcm/internal/tee"
)

// An old blob with the segments of later, unstored checkpoints after it
// is the full chain: recovery folds every segment that holds records.
func TestCheckpointOldBlobNewerSegmentsRecovers(t *testing.T) {
	r := newRigWith(t, []uint32{1}, func(cfg *TrustedConfig) { cfg.cutRecords = 2 })
	r.noCheckpoints = true
	for i := 1; i <= 7; i++ {
		r.mustPut(1, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	for seg, want := range []int{2, 2, 2, 1} {
		if got := r.storage.LogLen(SegmentSlot(uint64(seg))); got != want {
			t.Fatalf("segment %d holds %d records, want %d", seg, got, want)
		}
	}
	if err := r.enclave.Restart(); err != nil {
		t.Fatalf("restart over the bootstrap blob: %v", err)
	}
	status, err := QueryStatus(r.enclave.Call)
	if err != nil || status.Seq != 7 || status.ChainLen != 7 {
		t.Fatalf("recovered status = %+v, %v; want seq 7 from all four segments", status, err)
	}
	for i := 1; i <= 7; i++ {
		if kv, _ := r.mustGet(1, fmt.Sprintf("k%d", i)); string(kv.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q", i, kv.Value)
		}
	}
}

// Segments that are swapped, or records reordered inside one, put a
// record where it was not sealed and halt recovery. Beacon records start
// and end at the same sequence number, so only Prev in the associated
// data can tell them apart.
func TestCheckpointSplicedOrSwappedSegmentsHalt(t *testing.T) {
	for _, tc := range []struct {
		name       string
		cutRecords int
		splice     func(r *rig)
	}{
		{"swapped", 1, func(r *rig) {
			one, _ := r.storage.LoadLog(SegmentSlot(1))
			two, _ := r.storage.LoadLog(SegmentSlot(2))
			r.rewriteSegment(1, two)
			r.rewriteSegment(2, one)
		}},
		{"reordered", 1 << 20, func(r *rig) {
			log, _ := r.storage.LoadLog(SegmentSlot(0))
			log[1], log[2] = log[2], log[1]
			r.rewriteSegment(0, log)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRigWith(t, []uint32{1}, func(cfg *TrustedConfig) { cfg.cutRecords = tc.cutRecords })
			r.noCheckpoints = true
			for i := 0; i < 3; i++ {
				if err := r.beacon(); err != nil {
					t.Fatal(err)
				}
			}
			if err := r.enclave.Restart(); err != nil {
				t.Fatalf("honest restart: %v", err)
			}
			tc.splice(r)
			if err := r.enclave.Restart(); !errors.Is(err, tee.ErrEnclaveHalted) {
				t.Fatalf("restart over %s segments = %v, want a halt", tc.name, err)
			}
		})
	}
}

// rewriteSegment replaces the records of one log segment.
func (r *rig) rewriteSegment(seg uint64, records [][]byte) {
	r.t.Helper()
	if err := r.storage.TruncateLog(SegmentSlot(seg)); err != nil {
		r.t.Fatal(err)
	}
	if err := r.storage.AppendGroup(SegmentSlot(seg), records); err != nil {
		r.t.Fatal(err)
	}
}

// A restart drops the checkpoint a cut froze in the previous epoch: the
// new epoch has nothing to seal until it cuts again.
func TestCheckpointRestartDropsPendingCheckpoint(t *testing.T) {
	r := newRigWith(t, []uint32{1}, func(cfg *TrustedConfig) { cfg.cutRecords = 2 })
	r.noCheckpoints = true
	r.mustPut(1, "a", "1")
	r.mustPut(1, "b", "2") // cuts
	if err := r.enclave.Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.enclave.BackgroundCall(EncodeCheckpointCall(1)); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("checkpoint seal after a restart = %v, want ErrNoCheckpoint", err)
	}
}
