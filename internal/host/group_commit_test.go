package host

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/counter"
	"lcm/internal/kvs"
	"lcm/internal/latency"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
)

// groupStack builds an LCM deployment with the group-commit committer
// enabled over the given store, bootstrapped for nClients.
func groupStack(t *testing.T, store stablestore.Store, nClients int) (*Server, *core.Admin, *transport.InmemNetwork) {
	t.Helper()
	attestation := tee.NewAttestationService()
	platform, err := tee.NewPlatform("plat-group")
	if err != nil {
		t.Fatal(err)
	}
	attestation.Register(platform)
	server, err := New(Config{
		Platform: platform,
		Factory: core.NewTrustedFactory(core.TrustedConfig{
			ServiceName: "kvs",
			NewService:  kvs.Factory(),
			Attestation: attestation,
		}),
		Store:       store,
		BatchSize:   1,
		GroupCommit: true,
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
	ids := make([]uint32, nClients)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	admin := core.NewAdmin(attestation, core.ProgramIdentity("kvs"))
	if err := admin.Bootstrap(server.ECall, ids); err != nil {
		t.Fatal(err)
	}
	return server, admin, net
}

func groupSession(t *testing.T, net *transport.InmemNetwork, admin *core.Admin, id uint32) *client.Session {
	t.Helper()
	conn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(conn, id, admin.CommunicationKey(), client.Config{Timeout: 5 * time.Second})
	t.Cleanup(func() { c.Close() })
	return c
}

// Concurrent clients over fsync-per-write storage: every operation
// succeeds, the committer actually coalesces appends (shared fsyncs), and
// an honest restart folds the grouped log exactly.
func TestGroupCommitConcurrentClients(t *testing.T) {
	model := &latency.Model{Scale: 1, SyncWrite: 500 * time.Microsecond}
	store, err := stablestore.NewFileStore(t.TempDir(), true, model)
	if err != nil {
		t.Fatal(err)
	}
	const clients, opsPer = 4, 10
	server, admin, net := groupStack(t, store, clients)

	sessions := make([]*client.Session, clients)
	for id := uint32(1); id <= clients; id++ {
		sessions[id-1] = groupSession(t, net, admin, id)
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for id := uint32(1); id <= clients; id++ {
		c := sessions[id-1]
		wg.Add(1)
		go func(id uint32, c *client.Session) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				if _, err := c.Do(kvs.Put(fmt.Sprintf("k%d", id), fmt.Sprintf("v%d", i))); err != nil {
					errs <- fmt.Errorf("client %d op %d: %w", id, i, err)
					return
				}
			}
		}(id, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	groups, records, maxGroup := server.GroupCommitStats()
	if groups == 0 || records == 0 {
		t.Fatalf("no group-commit activity recorded: groups=%d records=%d", groups, records)
	}
	if records < groups {
		t.Fatalf("records=%d < groups=%d", records, groups)
	}
	if maxGroup < 1 {
		t.Fatalf("maxGroup = %d", maxGroup)
	}

	// Restart: the grouped log folds back to the exact state.
	if err := server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart over grouped log: %v", err)
	}
	status, err := core.QueryStatus(server.ECall)
	if err != nil {
		t.Fatal(err)
	}
	if status.Seq != clients*opsPer {
		t.Fatalf("recovered seq = %d, want %d", status.Seq, clients*opsPer)
	}
	res, err := sessions[0].Do(kvs.Get("k3"))
	if err != nil {
		t.Fatal(err)
	}
	kv, _ := kvs.DecodeResult(res.Value)
	if string(kv.Value) != fmt.Sprintf("v%d", opsPer-1) {
		t.Fatalf("k3 = %q after restart", kv.Value)
	}
}

// A crash of the coalesced fsync (CrashStore fails the whole group) must
// behave exactly like any lost write: the affected clients get errors, the
// enclave restarts onto the on-disk chain, the clients converge through
// retries, and no later restart reports a phantom rollback.
func TestGroupCommitCrashDuringCoalescedFsync(t *testing.T) {
	crash := stablestore.NewCrashStore(stablestore.NewMemStore())
	server, admin, net := groupStack(t, crash, 2)

	c1 := groupSession(t, net, admin, 1)
	c2 := groupSession(t, net, admin, 2)
	if _, err := c1.Do(kvs.Put("a", "v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Do(kvs.Put("b", "v1")); err != nil {
		t.Fatal(err)
	}

	// The disk dies for the next group commit; both clients' in-flight
	// operations land in the failed group (or in a poisoned successor).
	crash.FailAfter(0)
	var wg sync.WaitGroup
	fails := make([]error, 2)
	for i, c := range []*client.Session{c1, c2} {
		wg.Add(1)
		go func(i int, c *client.Session) {
			defer wg.Done()
			_, fails[i] = c.Do(kvs.Put(fmt.Sprintf("crash%d", i), "lost"))
		}(i, c)
	}
	wg.Wait()
	if fails[0] == nil && fails[1] == nil {
		t.Fatal("both writes succeeded despite the injected fsync crash")
	}
	crash.Reset()

	// Both clients converge via the Sec. 4.6.1 retry protocol; the failed
	// ops must surface exactly once.
	for i, c := range []*client.Session{c1, c2} {
		if fails[i] == nil {
			continue
		}
		if _, err := c.Recover(); err != nil {
			t.Fatalf("client %d recover: %v", i+1, err)
		}
	}
	status, err := core.QueryStatus(server.ECall)
	if err != nil {
		t.Fatal(err)
	}
	if status.Seq != 4 {
		t.Fatalf("seq after recovery = %d, want 4 (no duplicates, no losses)", status.Seq)
	}

	// More traffic and a clean restart: the chain has no gap, so recovery
	// must succeed — a halt here would be a false rollback positive.
	if _, err := c1.Do(kvs.Put("a", "v2")); err != nil {
		t.Fatal(err)
	}
	if err := server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart after crash cycle: %v", err)
	}
	res, err := c1.Do(kvs.Get("a"))
	if err != nil {
		t.Fatal(err)
	}
	kv, _ := kvs.DecodeResult(res.Value)
	if string(kv.Value) != "v2" {
		t.Fatalf("a = %q after crash/recover cycle, want v2", kv.Value)
	}
	if server.Enclave(0).HaltedErr() != nil {
		t.Fatalf("false rollback positive: %v", server.Enclave(0).HaltedErr())
	}
}

// Admin operations (which persist inside the ecall) interleave safely
// with group-committed traffic: the FrameECall/ECall barrier flushes the
// committer first, so the membership change lands on a log consistent
// with every acknowledged batch.
func TestGroupCommitAdminBarrier(t *testing.T) {
	model := &latency.Model{Scale: 1, SyncWrite: 200 * time.Microsecond}
	store, err := stablestore.NewFileStore(t.TempDir(), true, model)
	if err != nil {
		t.Fatal(err)
	}
	server, admin, net := groupStack(t, store, 2)

	c1 := groupSession(t, net, admin, 1)
	stopTraffic := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stopTraffic:
				return
			default:
			}
			if _, err := c1.Do(kvs.Put("k", fmt.Sprintf("v%d", i))); err != nil {
				return
			}
		}
	}()

	// Membership change mid-traffic: persists a fresh blob + truncation
	// through the enclave, behind the committer flush barrier.
	if err := admin.Join(server.ECall, 3); err != nil {
		t.Fatalf("Join during traffic: %v", err)
	}
	close(stopTraffic)
	wg.Wait()

	if err := server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart after admin op: %v", err)
	}
	status, err := core.QueryStatus(server.ECall)
	if err != nil {
		t.Fatal(err)
	}
	if status.NumClients != 3 || status.AdminSeq != 1 {
		t.Fatalf("membership lost across restart: %+v", status)
	}
	c3 := groupSession(t, net, admin, 3)
	if _, err := c3.Do(kvs.Put("new", "client")); err != nil {
		t.Fatalf("new member op: %v", err)
	}
}

// A result with nothing to persist — a pure-heartbeat churn batch — goes
// through the committer like every sealed result and must write nothing:
// storing its empty blob would destroy the state. The state blob stays
// byte-identical and the heartbeats issue no store or append.
func TestGroupCommitHeartbeatWritesNothing(t *testing.T) {
	for _, groupCommit := range []bool{false, true} {
		t.Run(fmt.Sprintf("groupcommit=%v", groupCommit), func(t *testing.T) {
			storage := stablestore.NewRollbackStore(stablestore.NewMemStore())
			st := newShardStack(t, storage, 1, []uint32{1}, groupCommit)
			sess := st.session(1)
			if _, err := sess.Do(kvs.Put("k", "v")); err != nil {
				t.Fatal(err)
			}
			blob, err := storage.Load(core.SlotStateBlob)
			if err != nil {
				t.Fatal(err)
			}
			versions, records := storage.Versions(core.SlotStateBlob), storage.LogLen(core.SlotDeltaLog)
			for i := 0; i < 3; i++ {
				if err := sess.Heartbeat(); err != nil {
					t.Fatalf("heartbeat %d: %v", i, err)
				}
			}
			// Heartbeats are fire-and-forget; the connection handles its
			// frames in order, so this read's reply means every heartbeat
			// has been committed. The read itself appends one record.
			get := func() {
				t.Helper()
				res, err := sess.Do(kvs.Get("k"))
				if err != nil {
					t.Fatal(err)
				}
				if kv, _ := kvs.DecodeResult(res.Value); string(kv.Value) != "v" {
					t.Fatalf("k = %q, want v", kv.Value)
				}
			}
			get()
			after, err := storage.Load(core.SlotStateBlob)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, blob) {
				t.Fatalf("state blob changed under heartbeats: %d → %d bytes", len(blob), len(after))
			}
			if v, r := storage.Versions(core.SlotStateBlob), storage.LogLen(core.SlotDeltaLog); v != versions || r != records+1 {
				t.Fatalf("heartbeats wrote: blob versions %d → %d, log records %d → %d (want +1 for the read)",
					versions, v, records, r)
			}
			// The state is intact: a restart folds it and the value reads back.
			if err := st.server.Enclave(0).Restart(); err != nil {
				t.Fatal(err)
			}
			get()
		})
	}
}

// GroupCommit selects whether the next ecall overlaps the previous commit,
// not a code path: one schedule — writes, heartbeats, an epoch seal, an
// honest restart, reads — observes the same results and ends at the same
// chain position with GroupCommit off and on, on every stack helper.
func TestGroupCommitDifferential(t *testing.T) {
	// deployment is one stack reduced to what the schedule drives: one
	// client's operations and heartbeats, and shard 0's barrier ecall.
	type deployment struct {
		do        func(op []byte) (*core.Result, error)
		heartbeat func() error
		ecall     core.CallFunc
		server    *Server
		write     func(i int) []byte
		read      []byte
	}
	kvWrite := func(i int) []byte { return kvs.Put(fmt.Sprintf("k%d", i%3), fmt.Sprintf("v%d", i)) }
	ids := []uint32{1}
	sharded := func(st *shardStack, sess *client.ShardedSession) deployment {
		return deployment{do: sess.Do, heartbeat: sess.Heartbeat, ecall: st.server.ShardCall(0),
			server: st.server, write: kvWrite, read: kvs.Get("k1")}
	}
	plain := func(srv *Server, sess *client.Session) deployment {
		return deployment{do: sess.Do, heartbeat: sess.Heartbeat, ecall: srv.ECall,
			server: srv, write: kvWrite, read: kvs.Get("k1")}
	}
	helpers := []struct {
		name  string
		build func(t *testing.T, groupCommit bool) deployment
	}{
		{"shard", func(t *testing.T, gc bool) deployment {
			st := newShardStack(t, stablestore.NewMemStore(), 1, ids, gc)
			return sharded(st, st.session(1))
		}},
		{"replicated", func(t *testing.T, gc bool) deployment {
			st := newReplicatedStack(t, stablestore.NewMemStore(), 1, ids, gc, 2, 2)
			return sharded(st, st.session(1))
		}},
		{"clone", func(t *testing.T, gc bool) deployment {
			s := newCloneStack(t, "differential", ids, 0, gc)
			return plain(s.server, s.session(1))
		}},
		{"read", func(t *testing.T, gc bool) deployment {
			s := newReadStack(t, ids, 4, gc)
			return plain(s.server, s.session(1))
		}},
		{"bank", func(t *testing.T, gc bool) deployment {
			st := bankStack(t, stablestore.NewMemStore(), 1, ids, gc)
			d := sharded(st, st.sessionWith(1, counter.New()))
			d.write = func(i int) []byte { return counter.Inc(fmt.Sprintf("acct%d", i%3), int64(i)) }
			d.read = counter.Read("acct1")
			return d
		}},
	}
	schedule := func(t *testing.T, d deployment) []string {
		var trace []string
		op := func(payload []byte) {
			t.Helper()
			res, err := d.do(payload)
			if err != nil {
				t.Fatalf("op %d: %v", len(trace), err)
			}
			trace = append(trace, fmt.Sprintf("seq=%d value=%x", res.Seq, res.Value))
		}
		for i := 0; i < 6; i++ {
			op(d.write(i))
		}
		if err := d.heartbeat(); err != nil {
			t.Fatalf("heartbeat: %v", err)
		}
		if _, err := d.ecall(core.EncodeEpochSealCall()); err != nil {
			t.Fatalf("epoch seal: %v", err)
		}
		op(d.write(6))
		if err := d.server.Enclave(0).Restart(); err != nil {
			t.Fatal(err)
		}
		op(d.read)
		op(d.write(7))
		st, err := core.QueryStatus(d.ecall)
		if err != nil {
			t.Fatal(err)
		}
		return append(trace, fmt.Sprintf("seq=%d chain=%d group-epoch=%d", st.Seq, st.ChainLen, st.GroupEpoch))
	}
	for _, h := range helpers {
		t.Run(h.name, func(t *testing.T) {
			off, on := schedule(t, h.build(t, false)), schedule(t, h.build(t, true))
			if fmt.Sprint(off) != fmt.Sprint(on) {
				t.Fatalf("GroupCommit off and on diverge:\noff %q\non  %q", off, on)
			}
		})
	}
}
