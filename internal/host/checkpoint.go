package host

import (
	"crypto/sha256"
	"errors"
	"sync"
	"sync/atomic"

	"lcm/internal/core"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
)

// blobFence orders an instance's state-blob writes. An inline blob and a
// host-initiated restart (instance.restart) advance gen; a checkpoint is
// stored only if gen did not move since its cut and it names a later
// segment. mu is held across each write and drop; a cut reads gen unlocked.
type blobFence struct {
	mu  sync.Mutex
	gen atomic.Uint64
	seg uint64 // segment named by the last blob stored here
	low uint64 // the segments below low are dropped
}

// advance marks an inline blob write, after any checkpoint write.
func (f *blobFence) advance() {
	f.mu.Lock()
	f.gen.Add(1)
	f.mu.Unlock()
}

// restart lets a checkpoint write past its checks finish before Init reads storage.
func (inst *instance) restart() error { inst.fence.advance(); return inst.enclave.Restart() }

// storeInline stores an inline blob naming segment seg, clearing a new
// one first (see appendReplicated).
func (inst *instance) storeInline(slot string, blob []byte, seg uint64) error {
	inst.fence.mu.Lock()
	defer inst.fence.mu.Unlock()
	inst.fence.gen.Add(1)
	if seg != inst.fence.seg {
		if err := inst.store.TruncateLog(core.SegmentSlot(seg)); err != nil {
			return err
		}
	}
	if err := inst.store.Store(slot, blob); err != nil {
		return err
	}
	inst.fence.stored(inst.store, seg)
	return nil
}

// checkpoint seals the checkpoint the cut result froze in the given epoch
// beside the request path, makes sure the cut's record is durable, and
// stores the blob outside the persist lock and the committer's reply
// queue (see core/state.go). A failed write is not a crash; a restart, a
// newer cut or blob, or a cut record not released drops the checkpoint.
func (s *Server) checkpoint(inst *instance, epoch, gen uint64, cut *core.BatchResult) {
	defer inst.checkpoints.Done()
	seg, call := cut.Seg+1, core.EncodeCheckpointCall(cut.Seg+1)
	blob, err := inst.enclave.BackgroundCall(call)
	if errors.Is(err, tee.ErrNoBackgroundProgram) {
		blob, err = inst.enclave.Call(call) // a decorator hid the entry point (a tracer)
	}
	if err != nil {
		return
	}
	inst.cm.flush() // the cut's result was submitted before this goroutine started
	f := &inst.fence
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.gen.Load() != gen || seg <= f.seg || inst.enclave.Epoch() != epoch ||
		!inst.cm.released(epoch, cut.Seq) || inst.store.Store(s.cfg.StateSlot, blob) != nil {
		return
	}
	f.stored(inst.store, seg)
	if inst.rs != nil {
		inst.rs.Rebase(sha256.Sum256(cut.DeltaRecord)) // the chain head h_S the blob binds
	}
}

// released reports whether the committer has released a result of the
// given epoch at sequence seq or later.
func (c *committer) released(epoch, seq uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.durEpoch == epoch && c.durSeq >= seq
}

// stored records a blob naming segment seg and drops the segments below
// it, oldest first from the first not yet dropped (0 for a new instance).
func (f *blobFence) stored(store stablestore.Store, seg uint64) {
	f.seg = seg
	for ; f.low < seg; f.low++ {
		if store.TruncateLog(core.SegmentSlot(f.low)) != nil {
			return
		}
	}
}
