package host

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
)

// crashStack builds an LCM deployment over crash-injectable storage.
func crashStack(t *testing.T) (*Server, *stablestore.CrashStore, *core.Admin, *transport.InmemNetwork) {
	t.Helper()
	attestation := tee.NewAttestationService()
	platform, err := tee.NewPlatform("plat-crash")
	if err != nil {
		t.Fatal(err)
	}
	attestation.Register(platform)
	storage := stablestore.NewCrashStore(stablestore.NewMemStore())
	server, err := New(Config{
		Platform: platform,
		Factory: core.NewTrustedFactory(core.TrustedConfig{
			ServiceName: "kvs",
			NewService:  kvs.Factory(),
			Attestation: attestation,
		}),
		Store:     storage,
		BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInmemNetwork()
	listener, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(listener)
	t.Cleanup(func() {
		listener.Close()
		server.Shutdown()
	})
	admin := core.NewAdmin(attestation, core.ProgramIdentity("kvs"))
	if err := admin.Bootstrap(server.ECall, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	return server, storage, admin, net
}

// A storage failure while persisting the sealed state is reported to the
// client and, like every lost write, restarts the enclave from the last
// persisted state; once storage recovers, the retry re-executes the
// operation exactly once (the restarted epoch never processed it — retry
// case A of Sec. 4.6.1).
func TestStorageCrashDuringStateStore(t *testing.T) {
	server, storage, admin, net := crashStack(t)

	conn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(conn, 1, admin.CommunicationKey(), client.Config{Timeout: 2 * time.Second})
	defer c.Close()

	if _, err := c.Do(kvs.Put("k", "v1")); err != nil {
		t.Fatal(err)
	}

	// The disk dies for the next write.
	storage.FailAfter(0)
	if _, err := c.Do(kvs.Put("k", "v2")); err == nil {
		t.Fatal("operation succeeded despite storage failure")
	}

	// Disk comes back; the pending operation is retried and must not
	// execute twice.
	storage.Reset()
	res, err := c.Recover()
	if err != nil {
		t.Fatalf("Recover after storage crash: %v", err)
	}
	if res.Seq != 2 {
		t.Fatalf("recovered seq = %d, want 2", res.Seq)
	}
	status, err := core.QueryStatus(server.ECall)
	if err != nil {
		t.Fatal(err)
	}
	if status.Seq != 2 {
		t.Fatalf("t = %d after recovery, want 2 (no duplicate execution)", status.Seq)
	}
	// The client continues normally.
	res, err = c.Do(kvs.Get("k"))
	if err != nil {
		t.Fatal(err)
	}
	kv, _ := kvs.DecodeResult(res.Value)
	if string(kv.Value) != "v2" {
		t.Fatalf("value = %q, want v2", kv.Value)
	}
}

// A full crash cycle: storage fails, host restarts the enclave from the
// last persisted state, and the client's retry converges — covering both
// retry cases across one run.
func TestCrashRestartRetryCycle(t *testing.T) {
	server, storage, admin, net := crashStack(t)

	conn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(conn, 1, admin.CommunicationKey(), client.Config{Timeout: 2 * time.Second})
	defer c.Close()

	for i := 1; i <= 3; i++ {
		if _, err := c.Do(kvs.Put("k", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Crash: the next store fails AND the enclave restarts — as if the
	// whole server machine rebooted after losing a write.
	storage.FailAfter(0)
	if _, err := c.Do(kvs.Put("k", "lost")); err == nil {
		t.Fatal("write during crash succeeded")
	}
	storage.Reset()
	if err := server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart after crash: %v", err)
	}

	// The enclave recovered from the state of seq 3; the client's pending
	// op (seq 4) was executed in the lost epoch but never persisted — the
	// recovered V says the client's last op is seq 3 and the retry
	// matches it (case A: not yet processed in this epoch) → re-execute.
	res, err := c.Recover()
	if err != nil {
		t.Fatalf("Recover after restart: %v", err)
	}
	if res.Seq != 4 {
		t.Fatalf("recovered seq = %d, want 4", res.Seq)
	}
	kv, _ := kvs.DecodeResult(res.Value)
	_ = kv
	status, _ := core.QueryStatus(server.ECall)
	if status.Seq != 4 {
		t.Fatalf("t = %d, want 4", status.Seq)
	}
}

// The host reports malformed enclave responses as errors rather than
// crashing or hanging clients.
func TestHostSurvivesEnclaveErrors(t *testing.T) {
	server, _, admin, net := crashStack(t)
	_ = admin

	// An ecall with an unknown kind produces a clean error frame.
	conn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	call, closeFn := client.AdminConn(conn)
	defer closeFn()
	if _, err := call([]byte{0xEE}); err == nil {
		t.Fatal("unknown ecall kind accepted")
	}
	// The server keeps serving afterwards.
	if _, err := core.QueryStatus(server.ECall); err != nil {
		t.Fatalf("status after bad ecall: %v", err)
	}
}

// deltaCrashStack builds an LCM deployment whose storage is both
// crash-injectable and rollback-capable, so one test can exercise a crash
// and a subsequent adversarial recovery on the delta log.
func deltaStack(t *testing.T) (*Server, *stablestore.RollbackStore, *core.Admin, *transport.InmemNetwork) {
	t.Helper()
	attestation := tee.NewAttestationService()
	platform, err := tee.NewPlatform("plat-delta")
	if err != nil {
		t.Fatal(err)
	}
	attestation.Register(platform)
	storage := stablestore.NewRollbackStore(stablestore.NewMemStore())
	server, err := New(Config{
		Platform: platform,
		Factory: core.NewTrustedFactory(core.TrustedConfig{
			ServiceName: "kvs",
			NewService:  kvs.Factory(),
			Attestation: attestation,
		}),
		Store:     storage,
		BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInmemNetwork()
	listener, err := net.Listen("srv")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(listener)
	t.Cleanup(func() {
		listener.Close()
		server.Shutdown()
	})
	admin := core.NewAdmin(attestation, core.ProgramIdentity("kvs"))
	if err := admin.Bootstrap(server.ECall, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	return server, storage, admin, net
}

// A host crash in the middle of the delta log: the enclave restarts from
// the base snapshot plus the persisted records, and the client's pending
// operation converges via the retry protocol — the delta path preserves
// Sec. 4.6.1 crash tolerance. (crashStack's CrashStore injects the failed
// append.)
func TestCrashMidDeltaLogRestartResumes(t *testing.T) {
	server, storage, admin, net := crashStack(t)

	conn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(conn, 1, admin.CommunicationKey(), client.Config{Timeout: 2 * time.Second})
	defer c.Close()

	// Three batches append three delta records.
	for i := 1; i <= 3; i++ {
		if _, err := c.Do(kvs.Put("k", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// The disk dies for the fourth append; the whole server then reboots.
	storage.FailAfter(0)
	if _, err := c.Do(kvs.Put("k", "lost")); err == nil {
		t.Fatal("write during crash succeeded")
	}
	storage.Reset()
	if err := server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart mid-log: %v", err)
	}

	// Recovery folded records 1-3; the pending op replays as case A.
	res, err := c.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if res.Seq != 4 {
		t.Fatalf("recovered seq = %d, want 4", res.Seq)
	}
	res, err = c.Do(kvs.Get("k"))
	if err != nil {
		t.Fatal(err)
	}
	kv, _ := kvs.DecodeResult(res.Value)
	if string(kv.Value) != "lost" {
		t.Fatalf("value = %q, want the recovered pending write", kv.Value)
	}
}

// Randomized crash/restart fuzz across a sharded deployment: seeded
// CrashStore budgets fail group commits at arbitrary points on every
// shard while concurrent clients write, interleaved with honest enclave
// restarts. Invariants, per seed:
//
//   - no acknowledged write is lost (a reply implies durability, so after
//     recovery every acknowledged value must read back);
//   - recovery yields no false rollback positives (a chain rebuilt from
//     the surviving log must fold cleanly — no shard halts without an
//     actual attack).
func TestShardCrashRestartFuzz(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			shardCrashFuzz(t, seed)
		})
	}
}

func shardCrashFuzz(t *testing.T, seed int64) {
	const (
		shards  = 3
		clients = 3
		rounds  = 25
	)
	rng := rand.New(rand.NewSource(seed))
	crash := stablestore.NewCrashStore(stablestore.NewMemStore())
	ids := []uint32{1, 2, 3}
	st := newShardStack(t, crash, shards, ids, true)

	type fuzzClient struct {
		sess  *client.ShardedSession
		keys  []string          // one private key per shard (no cross-client races)
		acked map[string]string // last acknowledged value per key
	}
	fcs := make([]*fuzzClient, clients)
	for i, id := range ids {
		fc := &fuzzClient{sess: st.session(id), acked: make(map[string]string)}
		for shard := 0; shard < shards; shard++ {
			fc.keys = append(fc.keys, keyOnShard(shard, shards, fmt.Sprintf("c%d", id)))
		}
		fcs[i] = fc
	}

	// recoverPending drains every pending operation on every shard; a
	// successful retry means the operation executed exactly once, so it
	// counts as acknowledged (Sec. 4.6.1 case A or B).
	recoverPending := func(fc *fuzzClient, vals map[string]string) {
		t.Helper()
		for shard := 0; shard < shards; shard++ {
			if !fc.sess.HasPending(shard) {
				continue
			}
			var lastErr error
			for attempt := 0; attempt < 10; attempt++ {
				if _, err := fc.sess.Recover(shard); err != nil {
					// Committer-initiated restarts surface transient
					// "retry" errors while the chain re-folds.
					lastErr = err
					time.Sleep(5 * time.Millisecond)
					continue
				}
				fc.acked[fc.keys[shard]] = vals[fc.keys[shard]]
				lastErr = nil
				break
			}
			if lastErr != nil {
				t.Fatalf("client %d shard %d never recovered: %v", fc.sess.ID(), shard, lastErr)
			}
		}
	}

	for round := 0; round < rounds; round++ {
		// Seeded crash budget: the disk dies after 0-4 more writes,
		// roughly every other round.
		if rng.Intn(2) == 0 {
			crash.FailAfter(rng.Intn(5))
		}
		// Concurrent writers, each on its private keys.
		var wg sync.WaitGroup
		attempts := make([]map[string]string, clients)
		for i, fc := range fcs {
			shard := rng.Intn(shards)
			val := fmt.Sprintf("r%d-c%d", round, fc.sess.ID())
			attempts[i] = map[string]string{fc.keys[shard]: val}
			wg.Add(1)
			go func(fc *fuzzClient, shard int, val string) {
				defer wg.Done()
				if _, err := fc.sess.Do(kvs.Put(fc.keys[shard], val)); err == nil {
					fc.acked[fc.keys[shard]] = val
				}
			}(fc, shard, val)
		}
		wg.Wait()

		// The disk comes back; every client converges via retries.
		crash.Reset()
		for i, fc := range fcs {
			recoverPending(fc, attempts[i])
		}

		// Occasionally the whole server machine reboots a shard honestly.
		if rng.Intn(3) == 0 {
			shard := rng.Intn(shards)
			if err := st.server.Enclave(shard).Restart(); err != nil {
				t.Fatalf("round %d: honest restart of shard %d: %v", round, shard, err)
			}
		}
	}

	// Final recovery: restart every shard from disk. A halt here would be
	// a false rollback positive — the chain must fold cleanly.
	crash.Reset()
	for shard := 0; shard < shards; shard++ {
		if err := st.server.Enclave(shard).Restart(); err != nil {
			t.Fatalf("final restart of shard %d: %v", shard, err)
		}
		if err := st.server.Enclave(shard).HaltedErr(); err != nil {
			t.Fatalf("false rollback positive on shard %d: %v", shard, err)
		}
	}
	// No acknowledged write may be lost.
	for _, fc := range fcs {
		for key, want := range fc.acked {
			res, err := fc.sess.Do(kvs.Get(key))
			if err != nil {
				t.Fatalf("client %d read %q after recovery: %v", fc.sess.ID(), key, err)
			}
			kv, err := kvs.DecodeResult(res.Value)
			if err != nil {
				t.Fatal(err)
			}
			if string(kv.Value) != want {
				t.Fatalf("client %d key %q = %q after recovery, want acknowledged %q",
					fc.sess.ID(), key, kv.Value, want)
			}
		}
	}
}

// A host serving a truncated delta-log suffix (rollback against the log)
// is detected exactly like the classic stale-blob rollback: the first
// client context ahead of the folded V halts the enclave.
func TestDeltaLogTruncatedSuffixDetected(t *testing.T) {
	server, storage, admin, net := deltaStack(t)

	conn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(conn, 1, admin.CommunicationKey(), client.Config{Timeout: 2 * time.Second})
	defer c.Close()

	for i := 1; i <= 4; i++ {
		if _, err := c.Do(kvs.Put("doc", fmt.Sprintf("draft-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if storage.LogLen(core.SlotDeltaLog) != 4 {
		t.Fatalf("log = %d records, want 4", storage.LogLen(core.SlotDeltaLog))
	}

	// Attack: drop the last two delta records and restart.
	if !storage.RollbackLogBy(core.SlotDeltaLog, 2) {
		t.Fatal("log rollback injection failed")
	}
	if err := server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart must accept the stale-but-authentic log: %v", err)
	}
	status, err := core.QueryStatus(server.ECall)
	if err != nil || status.Seq != 2 {
		t.Fatalf("rolled-back seq = %v, %v; want 2", status, err)
	}

	// The client's next op carries (tc=4, hc₄) — ahead of the folded V.
	if _, err := c.Do(kvs.Get("doc")); err == nil {
		t.Fatal("operation succeeded after delta-log rollback")
	}
	if server.Enclave(0).HaltedErr() == nil {
		t.Fatal("enclave did not record the violation")
	}
}

// A host that acknowledges delta appends without persisting them
// (DropWrites) is detected at the restart following the lie.
func TestDeltaLogDroppedWritesDetected(t *testing.T) {
	server, storage, admin, net := deltaStack(t)

	conn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(conn, 1, admin.CommunicationKey(), client.Config{Timeout: 2 * time.Second})
	defer c.Close()

	if _, err := c.Do(kvs.Put("k", "persisted")); err != nil {
		t.Fatal(err)
	}
	storage.DropWrites(true)
	// The lying host acknowledges; the client legitimately sees success.
	if _, err := c.Do(kvs.Put("k", "swallowed")); err != nil {
		t.Fatal(err)
	}
	storage.DropWrites(false)
	if err := server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	// The folded state misses the swallowed op; the client's context is
	// ahead → detection.
	if _, err := c.Do(kvs.Get("k")); err == nil {
		t.Fatal("dropped delta append went undetected")
	}
	if server.Enclave(0).HaltedErr() == nil {
		t.Fatal("enclave did not record the violation")
	}
}

// A transient append failure must not poison the delta chain: the host
// treats the lost write as a crash and restarts the enclave, so the chain
// re-synchronizes with the on-disk log and later restarts recover instead
// of halting on a phantom gap.
func TestTransientAppendFailureKeepsChainConsistent(t *testing.T) {
	server, storage, admin, net := crashStack(t)

	conn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(conn, 1, admin.CommunicationKey(), client.Config{Timeout: 2 * time.Second})
	defer c.Close()

	if _, err := c.Do(kvs.Put("k", "v1")); err != nil {
		t.Fatal(err)
	}
	// One append fails; the disk then recovers.
	storage.FailAfter(0)
	if _, err := c.Do(kvs.Put("k", "v2")); err == nil {
		t.Fatal("write during append failure succeeded")
	}
	storage.Reset()

	res, err := c.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if res.Seq != 2 {
		t.Fatalf("recovered seq = %d, want 2", res.Seq)
	}
	// More batches append on the re-synchronized chain...
	if _, err := c.Do(kvs.Put("k", "v3")); err != nil {
		t.Fatal(err)
	}
	// ...and a later restart folds the whole log without a gap.
	if err := server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart after recovered append failure: %v", err)
	}
	res, err = c.Do(kvs.Get("k"))
	if err != nil {
		t.Fatalf("op after restart: %v", err)
	}
	kv, _ := kvs.DecodeResult(res.Value)
	if string(kv.Value) != "v3" {
		t.Fatalf("value = %q, want v3", kv.Value)
	}
	status, _ := core.QueryStatus(server.ECall)
	if status.Seq != 4 {
		t.Fatalf("t = %d, want 4", status.Seq)
	}
}

// An honest crash can leave the newest log segment's last frame entirely
// zero-filled (the segment's size reached the disk before the frame did).
// The restart fold must read the zeros as a torn tail of that segment —
// after a checkpoint, a segment other than the first — and keep serving
// the state before it, not halt on them as a record that failed
// authentication.
func TestZeroFilledLogTailRestartsWithoutHalt(t *testing.T) {
	dir := t.TempDir()
	store, err := stablestore.NewFileStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := checkpointStack(t, store, false)
	c := s.session(1)
	putN(t, c, 0, core.CompactMinRecords+3) // cuts after record 16; 3 in segment 1
	s.server.instanceAt(0).checkpoints.Wait()
	path := filepath.Join(dir, core.SegmentSlot(1)+".log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last, end := 0, len(stablestore.LogHeader) // the start and end of the last complete frame
	for end+8 <= len(raw) {
		n := int(binary.BigEndian.Uint32(raw[end:]))
		if n == 0 || n > len(raw)-end-8 {
			break
		}
		last, end = end, end+8+n
	}
	log, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.WriteAt(make([]byte, end-last), int64(last)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart over a zero-filled last frame: %v", err)
	}
	res, err := s.session(2).Do(kvs.Get(fmt.Sprintf("key%d", core.CompactMinRecords+1)))
	if err != nil {
		t.Fatalf("get after restart: %v", err)
	}
	if kv, _ := kvs.DecodeResult(res.Value); string(kv.Value) != fmt.Sprintf("v%d", core.CompactMinRecords+1) {
		t.Fatalf("value after restart = %q, want the second-to-last put", kv.Value)
	}
	if st := status(t, s.server); st.Seq != core.CompactMinRecords+3 {
		t.Fatalf("seq after restart = %d, want %d: the zeroed frame's put is lost, the get is new", st.Seq, core.CompactMinRecords+3)
	}
}

// An honest crash can also persist a record's frame at full length with
// the tail of its payload still zeros (the log's size reached the disk
// before its data). The restart fold must read that frame as a torn tail
// — the write it carried was never durable — and keep serving the state
// before it, not halt on it as a record that failed authentication.
func TestTornLogFrameRestartsWithoutHalt(t *testing.T) {
	dir := t.TempDir()
	store, err := stablestore.NewFileStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newShardStack(t, store, 1, []uint32{1, 2}, false)
	c := s.session(1)
	for i := 1; i <= 3; i++ {
		if _, err := c.Do(kvs.Put("k", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(dir, core.SlotDeltaLog+".log")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the [u32 length | u32 CRC-32C | payload] frames behind the
	// file's header to the end of the last one.
	end := len(stablestore.LogHeader)
	for end+8 <= len(raw) {
		n := int(binary.BigEndian.Uint32(raw[end:]))
		if n == 0 || n > len(raw)-end-8 {
			break
		}
		end += 8 + n
	}
	log, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.WriteAt(make([]byte, 16), int64(end-16)); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart over a torn log frame: %v", err)
	}
	res, err := s.session(2).Do(kvs.Get("k"))
	if err != nil {
		t.Fatalf("get after restart: %v", err)
	}
	if kv, _ := kvs.DecodeResult(res.Value); string(kv.Value) != "v2" {
		t.Fatalf("value after restart = %q, want v2", kv.Value)
	}
}
