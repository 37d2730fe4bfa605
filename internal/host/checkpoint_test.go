package host

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/stablestore"
)

// hookStore wraps a store with optional hooks on state-blob stores and
// log truncations; a hook's error fails the call before it reaches the
// inner store. It counts the state-blob writes that got through.
type hookStore struct {
	inner      stablestore.Store
	onBlob     func() error
	onTruncate func(slot string) error
	blobs      atomic.Int64
	mu         sync.Mutex
}

func (s *hookStore) hooks() (func() error, func(string) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.onBlob, s.onTruncate
}

func (s *hookStore) set(onBlob func() error, onTruncate func(string) error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onBlob, s.onTruncate = onBlob, onTruncate
}

func (s *hookStore) Store(slot string, blob []byte) error {
	if slot == core.SlotStateBlob {
		if hook, _ := s.hooks(); hook != nil {
			if err := hook(); err != nil {
				return err
			}
		}
		defer s.blobs.Add(1)
	}
	return s.inner.Store(slot, blob)
}

func (s *hookStore) Load(slot string) ([]byte, error)        { return s.inner.Load(slot) }
func (s *hookStore) Append(slot string, record []byte) error { return s.inner.Append(slot, record) }
func (s *hookStore) LoadLog(slot string) ([][]byte, error)   { return s.inner.LoadLog(slot) }
func (s *hookStore) AppendGroup(slot string, records [][]byte) error {
	return s.inner.AppendGroup(slot, records)
}

func (s *hookStore) TruncateLog(slot string) error {
	if _, hook := s.hooks(); hook != nil {
		if err := hook(slot); err != nil {
			return err
		}
	}
	return s.inner.TruncateLog(slot)
}

var errBlobWrite = errors.New("test: state blob write failed")

// checkpointStack is a one-shard deployment over inner that cuts a
// checkpoint every CompactMinRecords records.
func checkpointStack(t *testing.T, inner stablestore.Store, groupCommit bool, opts ...func(*Config)) (*shardStack, *hookStore) {
	t.Helper()
	store := &hookStore{inner: inner}
	opts = append(opts, func(cfg *Config) {
		cfg.Factory = core.NewTrustedFactory(core.TrustedConfig{
			ServiceName:  "kvs",
			NewService:   kvs.Factory(),
			CompactRatio: 1e-9,
		})
	})
	s := newServiceShardStack(t, store, 1, []uint32{1, 2}, groupCommit, "kvs", kvs.Factory(), opts...)
	return s, store
}

// putN writes key<from>..key<to-1>, failing the test on any error.
func putN(t *testing.T, c *client.ShardedSession, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if _, err := c.Do(kvs.Put(fmt.Sprintf("key%d", i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatalf("put key%d: %v", i, err)
		}
	}
}

// checkKeys reads key<from>..key<to-1> back.
func checkKeys(t *testing.T, c *client.ShardedSession, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		res, err := c.Do(kvs.Get(fmt.Sprintf("key%d", i)))
		if err != nil {
			t.Fatalf("get key%d: %v", i, err)
		}
		if kv, _ := kvs.DecodeResult(res.Value); string(kv.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key%d = %q, want v%d", i, kv.Value, i)
		}
	}
}

func status(t *testing.T, s *Server) *core.Status {
	t.Helper()
	st, err := core.QueryStatus(s.ECall)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// While a checkpoint's blob write hangs, puts keep being acknowledged:
// the write runs beside the request path, not in the committer's ordered
// queue, in both group-commit modes.
func TestCheckpointBlobWriteDoesNotBlockPuts(t *testing.T) {
	for _, groupCommit := range []bool{false, true} {
		t.Run(fmt.Sprintf("groupCommit=%v", groupCommit), func(t *testing.T) {
			s, store := checkpointStack(t, stablestore.NewMemStore(), groupCommit)
			entered, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			store.set(func() error {
				once.Do(func() { close(entered) })
				<-release
				return nil
			}, nil)
			c := s.session(1)
			putN(t, c, 0, core.CompactMinRecords) // the last put cuts
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("no checkpoint blob write started")
			}
			putN(t, c, core.CompactMinRecords, 3*core.CompactMinRecords) // cuts again, twice
			close(release)
			s.server.instanceAt(0).checkpoints.Wait()
			if n := store.blobs.Load(); n < 2 {
				t.Fatalf("%d state blobs stored, want bootstrap + at least one checkpoint", n)
			}
			if err := s.server.Enclave(0).Restart(); err != nil {
				t.Fatal(err)
			}
			checkKeys(t, c, 0, 3*core.CompactMinRecords)
		})
	}
}

// A blob write that fails is not a crash: the enclave keeps its epoch,
// and the next threshold cuts and stores again.
func TestCheckpointFailedBlobWriteIsNotACrash(t *testing.T) {
	s, store := checkpointStack(t, stablestore.NewMemStore(), true)
	store.set(func() error { return errBlobWrite }, nil)
	c := s.session(1)
	epoch := s.server.Enclave(0).Epoch()
	putN(t, c, 0, core.CompactMinRecords)
	s.server.instanceAt(0).checkpoints.Wait()
	if n := store.blobs.Load(); n != 1 {
		t.Fatalf("%d state blobs stored, want only the bootstrap one", n)
	}
	if got := s.server.Enclave(0).Epoch(); got != epoch {
		t.Fatalf("enclave epoch %d after a failed blob write, want %d (no restart)", got, epoch)
	}
	store.set(nil, nil)
	putN(t, c, core.CompactMinRecords, 2*core.CompactMinRecords)
	s.server.instanceAt(0).checkpoints.Wait()
	if n := store.blobs.Load(); n != 2 {
		t.Fatalf("%d state blobs stored, want the bootstrap one and the next checkpoint", n)
	}
	if st := status(t, s.server); st.Compactions != 2 || st.ChainLen != 0 {
		t.Fatalf("status = %+v, want 2 cuts and an empty chain", st)
	}
	checkKeys(t, c, 0, 2*core.CompactMinRecords)
}

// A crash before the checkpoint's blob is stored leaves the old blob and
// every segment since it, which recovery folds without a halt.
func TestCheckpointCrashBeforeBlobStoredRecovers(t *testing.T) {
	s, store := checkpointStack(t, stablestore.NewMemStore(), true)
	store.set(func() error { return errBlobWrite }, nil)
	c := s.session(1)
	putN(t, c, 0, 2*core.CompactMinRecords+3) // two cuts, neither stored
	s.server.instanceAt(0).checkpoints.Wait()
	if err := s.server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart over the old blob: %v", err)
	}
	if st := status(t, s.server); st.Seq != 2*core.CompactMinRecords+3 || st.ChainLen != 2*core.CompactMinRecords+3 {
		t.Fatalf("recovered status = %+v, want every record folded", st)
	}
	checkKeys(t, c, 0, 2*core.CompactMinRecords+3)
}

// A crash between the checkpoint's blob store and the drop of the
// segments below it recovers from the new blob without a halt, and the
// next checkpoint drops what the crash left.
func TestCheckpointCrashBetweenStoreAndDropRecovers(t *testing.T) {
	mem := stablestore.NewMemStore()
	s, store := checkpointStack(t, mem, true)
	store.set(nil, func(slot string) error {
		if slot == core.SegmentSlot(0) {
			return errBlobWrite
		}
		return nil
	})
	c := s.session(1)
	putN(t, c, 0, core.CompactMinRecords+2) // cuts; segment 0 stays
	s.server.instanceAt(0).checkpoints.Wait()
	if n, _ := mem.LoadLog(core.SegmentSlot(0)); len(n) != core.CompactMinRecords {
		t.Fatalf("segment 0 holds %d records, want the %d the failed drop left", len(n), core.CompactMinRecords)
	}
	if err := s.server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart after a failed segment drop: %v", err)
	}
	if st := status(t, s.server); st.ChainLen != 2 {
		t.Fatalf("recovered status = %+v, want the 2 records after the checkpoint", st)
	}
	checkKeys(t, c, 0, core.CompactMinRecords+2)
	store.set(nil, nil)
	putN(t, c, core.CompactMinRecords+2, 2*core.CompactMinRecords+2)
	s.server.instanceAt(0).checkpoints.Wait()
	if n, _ := mem.LoadLog(core.SegmentSlot(0)); len(n) != 0 {
		t.Fatalf("segment 0 still holds %d records after the next checkpoint", len(n))
	}
}

// A restart while a checkpoint is in flight drops that checkpoint's blob:
// it was sealed in the old epoch, and the restarted one re-folded the
// chain on its own.
func TestCheckpointRestartInFlightDropsBlob(t *testing.T) {
	s, store := checkpointStack(t, stablestore.NewMemStore(), true)
	inst := s.server.instanceAt(0)
	c := s.session(1)
	putN(t, c, 0, core.CompactMinRecords-1)
	before := status(t, s.server).SnapshotBytes
	inst.fence.mu.Lock() // hold the checkpoint at its store
	putN(t, c, core.CompactMinRecords-1, core.CompactMinRecords)
	// Wait until the background seal ran (it records the new blob's size).
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := s.server.Enclave(0).Call(core.EncodeStatusCall())
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := core.DecodeStatus(resp); st.SnapshotBytes != before {
			break
		}
		if time.Now().After(deadline) {
			inst.fence.mu.Unlock()
			t.Fatal("the checkpoint was never sealed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.server.Enclave(0).Restart(); err != nil {
		t.Fatal(err)
	}
	inst.fence.mu.Unlock()
	inst.checkpoints.Wait()
	if n := store.blobs.Load(); n != 1 {
		t.Fatalf("%d state blobs stored, want only the bootstrap one", n)
	}
	checkKeys(t, c, 0, core.CompactMinRecords)
}

// appendFaultStore fails one append group to slot once armed, closing
// failed when it does.
type appendFaultStore struct {
	*stablestore.MemStore
	slot   string
	armed  atomic.Bool
	failed chan struct{}
}

func (s *appendFaultStore) AppendGroup(slot string, records [][]byte) error {
	if slot == s.slot && s.armed.CompareAndSwap(true, false) {
		close(s.failed)
		return errors.New("injected append fault")
	}
	return s.MemStore.AppendGroup(slot, records)
}

// A restart after a failed append waits for a checkpoint write past its
// checks: the blob and its segment drop finish before Init reads storage,
// so the restarted epoch appends to the segment the new blob names, and a
// second restart recovers every acknowledged put.
func TestCheckpointStoreInFlightOrdersRestart(t *testing.T) {
	for _, groupCommit := range []bool{false, true} {
		t.Run(fmt.Sprintf("groupCommit=%v", groupCommit), func(t *testing.T) {
			faulty := &appendFaultStore{MemStore: stablestore.NewMemStore(), slot: core.SegmentSlot(1), failed: make(chan struct{})}
			s, store := checkpointStack(t, faulty, groupCommit)
			entered, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			store.set(func() error {
				once.Do(func() { close(entered) })
				<-release
				return nil
			}, nil)
			c := s.session(1)
			const n = core.CompactMinRecords
			putN(t, c, 0, n) // the last put cuts; its blob write blocks
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("no checkpoint blob write started")
			}
			epoch := s.server.Enclave(0).Epoch()
			faulty.armed.Store(true)
			done := make(chan error, 1)
			go func() { // its append to segment 1 fails
				_, err := c.Do(kvs.Put(fmt.Sprintf("key%d", n), fmt.Sprintf("v%d", n)))
				done <- err
			}()
			select {
			case <-faulty.failed:
			case <-time.After(5 * time.Second):
				close(release)
				t.Fatal("no append to segment 1 was attempted")
			}
			// Leave a restart that does not wait for the blob write time to run.
			for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline) && s.server.Enclave(0).Epoch() == epoch; {
				time.Sleep(time.Millisecond)
			}
			close(release)
			if err := <-done; err == nil {
				t.Fatalf("put key%d acknowledged although its append failed", n)
			}
			if _, err := c.Recover(0); err != nil { // resends the put
				t.Fatalf("recover key%d: %v", n, err)
			}
			s.server.instanceAt(0).checkpoints.Wait()
			putN(t, c, n+1, n+4)
			if err := s.server.Enclave(0).Restart(); err != nil {
				t.Fatalf("second restart: %v", err)
			}
			checkKeys(t, c, 0, n+4)
		})
	}
}

// A stored checkpoint with a stale or missing segment after it is a
// truncated suffix: the restarted enclave comes up behind the clients,
// and the first client whose context is ahead detects the rollback.
func TestCheckpointStaleSegmentDetectedAsRollback(t *testing.T) {
	for _, missing := range []bool{false, true} {
		t.Run(fmt.Sprintf("missing=%v", missing), func(t *testing.T) {
			rollback := stablestore.NewRollbackStore(stablestore.NewMemStore())
			s, store := checkpointStack(t, rollback, true)
			c := s.session(1)
			putN(t, c, 0, core.CompactMinRecords+4)
			s.server.instanceAt(0).checkpoints.Wait()
			if n := store.blobs.Load(); n != 2 {
				t.Fatalf("%d state blobs stored, want bootstrap + checkpoint", n)
			}
			drop := 2
			if missing {
				drop = 4
			}
			if !rollback.RollbackLogBy(core.SegmentSlot(1), drop) {
				t.Fatal("segment 1 has fewer records than expected")
			}
			if err := s.server.Enclave(0).Restart(); err != nil {
				t.Fatalf("restart over a truncated suffix: %v", err)
			}
			if _, err := c.Do(kvs.Get("key0")); err == nil {
				t.Fatal("an op after the rollback succeeded")
			}
			if err := s.server.Enclave(0).HaltedErr(); err == nil || !strings.Contains(err.Error(), "rollback or forking attack") {
				t.Fatalf("enclave halt = %v, want the client-context rollback verdict", err)
			}
		})
	}
}

// A stored checkpoint re-anchors the replicas at h_S but keeps the records
// written after S while the blob was in flight: a primary rolled back
// behind them after the checkpoint still heals them from the peer.
func TestCheckpointRebaseKeepsPeerWindow(t *testing.T) {
	rollback := stablestore.NewRollbackStore(stablestore.NewMemStore())
	s, store := checkpointStack(t, rollback, true, func(cfg *Config) { cfg.Replicas, cfg.Quorum = 1, 2 })
	release := make(chan struct{})
	store.set(func() error { <-release; return nil }, nil)
	c := s.session(1)
	putN(t, c, 0, core.CompactMinRecords+3) // cuts at 16; 3 records follow while the blob waits
	close(release)
	s.server.instanceAt(0).checkpoints.Wait()
	if n := store.blobs.Load(); n != 2 {
		t.Fatalf("%d state blobs stored, want bootstrap + checkpoint", n)
	}
	if !rollback.RollbackLogBy(core.SegmentSlot(1), 2) {
		t.Fatal("segment 1 holds fewer than 2 records")
	}
	if err := s.server.Enclave(0).Restart(); err != nil {
		t.Fatal(err)
	}
	checkKeys(t, c, 0, core.CompactMinRecords+3)
	if err := s.server.Enclave(0).HaltedErr(); err != nil {
		t.Fatalf("enclave halted although the peer held the suffix: %v", err)
	}
}

// A cut clears the segment it opens: a chain rolled back behind a cut
// whose blob was never stored, and healed from a peer into its current
// segment, leaves the records after that cut in the next segment, where
// the next cut must not append behind them.
func TestCheckpointClearsReusedSegment(t *testing.T) {
	rollback := stablestore.NewRollbackStore(stablestore.NewMemStore())
	s, store := checkpointStack(t, rollback, true, func(cfg *Config) { cfg.Replicas, cfg.Quorum = 1, 2 })
	store.set(func() error { return errBlobWrite }, nil)
	c := s.session(1)
	putN(t, c, 0, core.CompactMinRecords+2) // cuts at 16; 17 and 18 in segment 1; no blob stored
	s.server.instanceAt(0).checkpoints.Wait()
	if !rollback.RollbackLogBy(core.SegmentSlot(1), 2) {
		t.Fatal("segment 1 holds fewer than 2 records")
	}
	if err := s.server.Enclave(0).Restart(); err != nil {
		t.Fatal(err)
	}
	checkKeys(t, c, 0, core.CompactMinRecords+2) // heals 17 and 18 into segment 0
	rollback.ClearAttack()
	store.set(nil, nil)
	putN(t, c, 100, 103) // the first cuts again, opening segment 1
	s.server.instanceAt(0).checkpoints.Wait()
	if err := s.server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart after the healed chain's next cut: %v (halt: %v)", err, s.server.Enclave(0).HaltedErr())
	}
	checkKeys(t, c, 0, core.CompactMinRecords+2)
	checkKeys(t, c, 100, 103)
}
