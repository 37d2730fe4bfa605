package host

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"lcm/internal/aead"
	"lcm/internal/client"
	"lcm/internal/consistency"
	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/service"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
)

// shardStack builds an n-shard LCM deployment over the given store: one
// enclave instance per shard, each bootstrapped by its own admin with the
// same client group, so a sharded client holds one protocol context (and
// one communication key) per shard.
type shardStack struct {
	t      *testing.T
	server *Server
	net    *transport.InmemNetwork
	admins []*core.Admin
	keys   []aead.Key
}

func newShardStack(t *testing.T, store stablestore.Store, shards int, clientIDs []uint32, groupCommit bool) *shardStack {
	return newServiceShardStack(t, store, shards, clientIDs, groupCommit, "kvs", kvs.Factory())
}

// newServiceShardStack is newShardStack generalized over the hosted
// functionality — the escrow tests deploy the bank instead of the kvs —
// and over any further host configuration opts apply.
func newServiceShardStack(t *testing.T, store stablestore.Store, shards int, clientIDs []uint32, groupCommit bool, svcName string, factory service.Factory, opts ...func(*Config)) *shardStack {
	t.Helper()
	attestation := tee.NewAttestationService()
	platform, err := tee.NewPlatform("plat-shard")
	if err != nil {
		t.Fatal(err)
	}
	attestation.Register(platform)
	cfg := Config{
		Platform: platform,
		Factory: core.NewTrustedFactory(core.TrustedConfig{
			ServiceName: svcName,
			NewService:  factory,
			Attestation: attestation,
		}),
		Store:       store,
		Shards:      shards,
		BatchSize:   4,
		GroupCommit: groupCommit,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	server, err := New(cfg)
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
	s := &shardStack{t: t, server: server, net: net}
	for shard := 0; shard < shards; shard++ {
		admin := core.NewAdmin(attestation, core.ProgramIdentity(svcName))
		if err := admin.Bootstrap(server.ShardCall(shard), clientIDs); err != nil {
			t.Fatalf("bootstrap shard %d: %v", shard, err)
		}
		s.admins = append(s.admins, admin)
		s.keys = append(s.keys, admin.CommunicationKey())
	}
	return s
}

func (s *shardStack) session(id uint32) *client.ShardedSession {
	return s.sessionWith(id, kvs.New())
}

// sessionWith opens a sharded session routed/merged by the given sharder
// (kvs.New() for kvs stacks, counter.New() for bank stacks).
func (s *shardStack) sessionWith(id uint32, sharder service.Sharder) *client.ShardedSession {
	s.t.Helper()
	conn, err := s.net.Dial("srv")
	if err != nil {
		s.t.Fatal(err)
	}
	sess := client.NewSharded(conn, id, s.keys, sharder, client.Config{
		Timeout: 5 * time.Second,
		Retries: 1,
	})
	s.t.Cleanup(func() { sess.Close() })
	return sess
}

// keyOnShard finds a key that hashes to the wanted shard — how tests
// steer traffic at specific shards (service.KeyOnShard).
func keyOnShard(shard, shards int, tag string) string {
	return service.KeyOnShard(shard, shards, tag)
}

// A sharded deployment serves concurrent clients across all shards, and
// the aggregated STATUS endpoint reports per-shard sequence numbers and
// group-commit counters that add up to the deployment totals.
func TestShardedEndToEndAggregatedStatus(t *testing.T) {
	const shards, clients, opsPerShard = 4, 3, 6
	ids := []uint32{1, 2, 3}
	st := newShardStack(t, stablestore.NewMemStore(), shards, ids, true)

	var wg sync.WaitGroup
	for _, id := range ids {
		sess := st.session(id)
		wg.Add(1)
		go func(id uint32, sess *client.ShardedSession) {
			defer wg.Done()
			for shard := 0; shard < shards; shard++ {
				key := keyOnShard(shard, shards, fmt.Sprintf("c%d", id))
				for op := 0; op < opsPerShard; op++ {
					if _, err := sess.Do(kvs.Put(key, fmt.Sprintf("v%d", op))); err != nil {
						t.Errorf("client %d shard %d op %d: %v", id, shard, op, err)
						return
					}
				}
			}
		}(id, sess)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// The operational endpoint, over the network like an operator would.
	sess := st.session(4) // unregistered id: status needs no protocol context
	ds, err := sess.DeploymentStatus()
	if err != nil {
		t.Fatalf("DeploymentStatus: %v", err)
	}
	if len(ds.Shards) != shards {
		t.Fatalf("status covers %d shards, want %d", len(ds.Shards), shards)
	}
	total := clients * shards * opsPerShard
	if got := ds.TotalSeq(); got != uint64(total) {
		t.Fatalf("aggregated seq = %d, want %d", got, total)
	}
	for _, sh := range ds.Shards {
		if sh.Status.Seq != clients*opsPerShard {
			t.Fatalf("shard %d seq = %d, want %d (keyspace not partitioned?)",
				sh.Shard, sh.Status.Seq, clients*opsPerShard)
		}
		if sh.Instances != 1 {
			t.Fatalf("shard %d instances = %d, want 1", sh.Shard, sh.Instances)
		}
		if !sh.Status.DeltaActive {
			t.Fatalf("shard %d lost delta persistence", sh.Shard)
		}
		if sh.Groups == 0 || sh.Records == 0 {
			t.Fatalf("shard %d shows no group-commit activity: %+v", sh.Shard, sh)
		}
	}
	// Per-shard counters must sum to the host's deployment totals.
	groups, records, maxGroup := st.server.GroupCommitStats()
	aGroups, aRecords, aMax := ds.GroupCommitTotals()
	if aGroups != groups || aRecords != records || aMax != maxGroup {
		t.Fatalf("status totals (%d,%d,%d) != host totals (%d,%d,%d)",
			aGroups, aRecords, aMax, groups, records, maxGroup)
	}
	// One committed record per batch; batching bounds them by the op count.
	if records == 0 || records > total {
		t.Fatalf("group-commit records = %d, want within (0, %d]", records, total)
	}
}

// Operations that cannot be pinned to one shard are rejected at the
// client, not guessed at.
func TestShardedSessionRejectsUnshardableOps(t *testing.T) {
	st := newShardStack(t, stablestore.NewMemStore(), 2, []uint32{1}, false)
	sess := st.session(1)
	if _, err := sess.Do(kvs.Scan("prefix", 10)); err == nil {
		t.Fatal("scan accepted by a sharded session")
	}
	// Shardable traffic still flows on the same session.
	if _, err := sess.Do(kvs.Put("k", "v")); err != nil {
		t.Fatalf("put after rejected scan: %v", err)
	}
}

// Per-shard fork-linearizability: forking one shard splits that shard's
// client views into two fork groups, while every other shard's history
// stays whole — the checker localises the attack to the shard under it.
func TestShardForkLocalisedToAttackedShard(t *testing.T) {
	const shards = 4
	const victim = 2 // the shard the host forks
	ids := []uint32{1, 2, 3}
	st := newShardStack(t, stablestore.NewMemStore(), shards, ids, false)

	logs := make([]*consistency.Log, shards)
	for i := range logs {
		logs[i] = consistency.NewLog()
	}
	record := func(sess *client.ShardedSession, shard int, op []byte, res *core.Result) {
		logs[shard].Record(consistency.Event{
			Client: sess.ID(),
			Seq:    res.Seq,
			Stable: res.Stable,
			Op:     op,
			Result: res.Value,
			Chain:  sess.State(shard).HC,
		})
	}
	do := func(sess *client.ShardedSession, shard int, tag, val string) {
		t.Helper()
		op := kvs.Put(keyOnShard(shard, shards, tag), val)
		res, err := sess.Do(op)
		if err != nil {
			t.Fatalf("client %d shard %d: %v", sess.ID(), shard, err)
		}
		record(sess, shard, op, res)
	}

	// Honest phase: clients 1 and 2 drive every shard except the victim.
	// The victim shard stays untouched until after the fork, so both of
	// its partitions grow from the same (empty) base state with zero
	// stability — each partition's history is then individually
	// self-consistent, which is exactly what fork-linearizability
	// promises the partitioned clients.
	s1, s2 := st.session(1), st.session(2)
	for round := 0; round < 3; round++ {
		for shard := 0; shard < shards; shard++ {
			if shard != victim {
				do(s1, shard, "c1", fmt.Sprintf("a%d", round))
				do(s2, shard, "c2", fmt.Sprintf("b%d", round))
			}
		}
	}

	// The attack: fork the victim shard. New connections have the victim
	// shard routed to the fork; existing connections stay on the primary.
	if _, err := st.server.AttackFork(victim); err != nil {
		t.Fatalf("AttackFork: %v", err)
	}
	s3 := st.session(3) // victim traffic lands on the fork

	// Both partitions of the victim shard make progress — the fork folded
	// the same sealed state, so sequence numbers overlap with diverging
	// chains. The other shards serve all three clients from one instance.
	for round := 0; round < 3; round++ {
		do(s2, victim, "c2", fmt.Sprintf("primary-%d", round))
		do(s3, victim, "c3", fmt.Sprintf("fork-%d", round))
		for shard := 0; shard < shards; shard++ {
			if shard != victim {
				do(s3, shard, "c3", fmt.Sprintf("c%d", round))
			}
		}
	}

	// Every shard's history must be fork-linearizable (LCM's guarantee
	// under attack)...
	for shard, log := range logs {
		if err := log.Check(kvs.Factory()); err != nil {
			t.Fatalf("shard %d history not fork-linearizable: %v", shard, err)
		}
	}
	// ...and the fork is localised: only the victim's views split.
	for shard, log := range logs {
		forks := log.Forks()
		if shard == victim {
			if len(forks) != 2 {
				t.Fatalf("victim shard %d: %d fork groups, want 2 (%v)", shard, len(forks), forks)
			}
			continue
		}
		if len(forks) != 1 {
			t.Fatalf("clean shard %d split into %d fork groups (%v)", shard, len(forks), forks)
		}
	}

	// Crossing the partition on the victim shard is detected...
	st.server.RouteNewConnsTo(victim) // honest routing for new connections
	conn, err := st.net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	s3b, err := client.ResumeSharded(conn, s3.States(), st.keys, kvs.New(), client.Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s3b.Close()
	if _, err := s3b.Do(kvs.Put(keyOnShard(victim, shards, "c3"), "join")); err == nil {
		t.Fatal("cross-partition operation on the victim shard succeeded")
	}
	if st.server.Enclave(victim).HaltedErr() == nil {
		t.Fatal("victim primary did not record the violation")
	}
	// ...while the other shards keep serving the same resumed session.
	for shard := 0; shard < shards; shard++ {
		if shard == victim {
			continue
		}
		if _, err := s3b.Do(kvs.Put(keyOnShard(shard, shards, "c3"), "after")); err != nil {
			t.Fatalf("clean shard %d refused traffic after the victim halted: %v", shard, err)
		}
		if st.server.Enclave(shard).HaltedErr() != nil {
			t.Fatalf("clean shard %d halted: %v", shard, st.server.Enclave(shard).HaltedErr())
		}
	}
}

// A rollback attack against one shard is detected by that shard's clients
// and leaves the other shards' chains untouched.
func TestShardRollbackLocalised(t *testing.T) {
	const shards = 3
	const victim = 1
	store := stablestore.NewRollbackStore(stablestore.NewMemStore())
	st := newShardStack(t, store, shards, []uint32{1}, false)
	sess := st.session(1)

	keys := make([]string, shards)
	for shard := range keys {
		keys[shard] = keyOnShard(shard, shards, "doc")
		for i := 1; i <= 3; i++ {
			if _, err := sess.Do(kvs.Put(keys[shard], fmt.Sprintf("draft-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}

	if err := st.server.AttackRollback(victim, 2); err != nil {
		t.Fatalf("AttackRollback: %v", err)
	}
	// The victim shard's next operation is answered with a halt...
	if _, err := sess.Do(kvs.Get(keys[victim])); err == nil {
		t.Fatal("operation succeeded after rollback of the victim shard")
	}
	if st.server.Enclave(victim).HaltedErr() == nil {
		t.Fatal("victim shard did not halt on the rollback")
	}
	// ...and the other shards are unaffected.
	for shard := 0; shard < shards; shard++ {
		if shard == victim {
			continue
		}
		res, err := sess.Do(kvs.Get(keys[shard]))
		if err != nil {
			t.Fatalf("clean shard %d: %v", shard, err)
		}
		kv, _ := kvs.DecodeResult(res.Value)
		if string(kv.Value) != "draft-3" {
			t.Fatalf("clean shard %d value = %q, want draft-3", shard, kv.Value)
		}
	}

	// The operational endpoint stays usable with a halted shard: the
	// victim reports its failure, the healthy shards report status.
	ds, err := st.server.DeploymentStatus()
	if err != nil {
		t.Fatalf("DeploymentStatus with a halted shard: %v", err)
	}
	for _, sh := range ds.Shards {
		if sh.Shard == victim {
			if sh.Err == "" {
				t.Fatalf("halted shard %d reports no error: %+v", sh.Shard, sh)
			}
			continue
		}
		if sh.Err != "" || sh.Status.Seq == 0 {
			t.Fatalf("healthy shard %d status degraded: %+v", sh.Shard, sh)
		}
	}
}
