package host

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
)

// newReplicatedStack is newShardStack plus a replica set per shard.
func newReplicatedStack(t *testing.T, store stablestore.Store, shards int, clientIDs []uint32, groupCommit bool, replicas, quorum int) *shardStack {
	t.Helper()
	attestation := tee.NewAttestationService()
	platform, err := tee.NewPlatform("plat-repl")
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
		Shards:      shards,
		BatchSize:   4,
		GroupCommit: groupCommit,
		Replicas:    replicas,
		Quorum:      quorum,
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
	s := &shardStack{t: t, server: server, net: net}
	for shard := 0; shard < shards; shard++ {
		admin := core.NewAdmin(attestation, core.ProgramIdentity("kvs"))
		if err := admin.Bootstrap(server.ShardCall(shard), clientIDs); err != nil {
			t.Fatalf("bootstrap shard %d: %v", shard, err)
		}
		s.admins = append(s.admins, admin)
		s.keys = append(s.keys, admin.CommunicationKey())
	}
	return s
}

// The headline property of chain replication: a rollback of the primary's
// log is healed from the replica peers instead of halting the deployment —
// the enclave resumes at its pre-attack sequence, no acknowledged write is
// lost, and the clients never see a violation.
func TestShardRollbackHealed(t *testing.T) {
	storage := stablestore.NewRollbackStore(stablestore.NewMemStore())
	st := newReplicatedStack(t, storage, 1, []uint32{1}, true, 2, 2)
	sess := st.session(1)

	for i := 1; i <= 4; i++ {
		if _, err := sess.Do(kvs.Put("doc", fmt.Sprintf("draft-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// The attack that used to halt the shard (TestShardRollbackLocalised).
	if err := st.server.AttackRollback(0, 2); err != nil {
		t.Fatalf("AttackRollback: %v", err)
	}

	// With a 3-replica set the shard heals: the next operation succeeds at
	// the client's expected sequence, against the full pre-attack state.
	res, err := sess.Do(kvs.Get("doc"))
	if err != nil {
		t.Fatalf("operation after healed rollback: %v", err)
	}
	kv, _ := kvs.DecodeResult(res.Value)
	if string(kv.Value) != "draft-4" {
		t.Fatalf("value after heal = %q, want draft-4 (acked write lost?)", kv.Value)
	}
	if err := st.server.Enclave(0).HaltedErr(); err != nil {
		t.Fatalf("enclave halted despite available peers: %v", err)
	}

	// The heal is visible on the operational endpoint.
	ds, err := st.server.DeploymentStatus()
	if err != nil {
		t.Fatal(err)
	}
	sh := ds.Shards[0]
	if sh.Replicas != 3 || sh.Quorum != 2 || sh.ReplicasLive != 3 {
		t.Fatalf("replica status = %d/%d live %d, want 3/2 live 3", sh.Replicas, sh.Quorum, sh.ReplicasLive)
	}
	if sh.Heals < 1 {
		t.Fatalf("heals = %d, want >= 1", sh.Heals)
	}

	// Once the attacker lets go of the storage, the healed chain is what
	// restarts fold: service continues with zero residue.
	storage.ClearAttack()
	if _, err := sess.Do(kvs.Put("doc", "draft-5")); err != nil {
		t.Fatal(err)
	}
	if err := st.server.Enclave(0).Restart(); err != nil {
		t.Fatal(err)
	}
	res, err = sess.Do(kvs.Get("doc"))
	if err != nil {
		t.Fatalf("operation after post-heal restart: %v", err)
	}
	kv, _ = kvs.DecodeResult(res.Value)
	if string(kv.Value) != "draft-5" {
		t.Fatalf("value = %q, want draft-5", kv.Value)
	}
}

// Rolling back the primary AND every peer is the f+1-host compromise the
// trust argument concedes: no honest copy of the suffix survives, so the
// enclave resumes stale and the first client ahead of it trips detection —
// exactly the paper's halt, never silent data loss.
func TestShardRollbackAllReplicasHalts(t *testing.T) {
	storage := stablestore.NewRollbackStore(stablestore.NewMemStore())
	st := newReplicatedStack(t, storage, 1, []uint32{1}, true, 2, 2)
	sess := st.session(1)

	for i := 1; i <= 4; i++ {
		if _, err := sess.Do(kvs.Put("doc", fmt.Sprintf("draft-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	for r := 0; r < 2; r++ {
		if err := st.server.AttackRollbackReplica(0, r, 2); err != nil {
			t.Fatalf("AttackRollbackReplica(%d): %v", r, err)
		}
	}
	if err := st.server.AttackRollback(0, 2); err != nil {
		t.Fatalf("AttackRollback: %v", err)
	}

	if _, err := sess.Do(kvs.Get("doc")); err == nil {
		t.Fatal("operation succeeded after a full-replica-set rollback")
	}
	if st.server.Enclave(0).HaltedErr() == nil {
		t.Fatal("enclave did not record the violation")
	}
}

// Torn replication state, direction one: the peers acknowledged a group
// but the primary's local fsync was lost in a crash. Recovery must
// converge on one chain — the peer copy folds back in, with no gap and no
// duplicate record in the rewritten log.
func TestTornReplicationLocalLossHeals(t *testing.T) {
	storage := stablestore.NewRollbackStore(stablestore.NewMemStore())
	st := newReplicatedStack(t, storage, 1, []uint32{1}, true, 2, 2)
	sess := st.session(1)

	for i := 1; i <= 3; i++ {
		if _, err := sess.Do(kvs.Put("k", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The torn crash: peers hold all 3 records, the local log loses its
	// tail record.
	if err := st.server.AttackRollback(0, 1); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Do(kvs.Get("k"))
	if err != nil {
		t.Fatalf("heal after torn local loss: %v", err)
	}
	kv, _ := kvs.DecodeResult(res.Value)
	if string(kv.Value) != "v3" {
		t.Fatalf("value = %q, want v3", kv.Value)
	}
	status, err := core.QueryStatus(st.server.ECall)
	if err != nil || status.Seq != 4 {
		t.Fatalf("seq = %v (%v), want 4 — exactly one fold per record", status, err)
	}

	// The rewritten log must be the one healed chain: a duplicate or a gap
	// in it would halt this restart's fold.
	storage.ClearAttack()
	if err := st.server.Enclave(0).Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Do(kvs.Put("k", "v4")); err != nil {
		t.Fatalf("write after re-fold of the healed log: %v", err)
	}
	if err := st.server.Enclave(0).HaltedErr(); err != nil {
		t.Fatalf("healed log did not re-fold cleanly: %v", err)
	}
}

// A heal must not reseed the peers from the host's stale view of the log.
// The rollback pin stays in force across the heal, so the host keeps
// serving the truncated log even after the healed rewrite: the peers must
// still hold the whole acknowledged chain afterwards, and a second restart
// under the same pin heals again from them.
func TestHealKeepsPeersUnderHeldPin(t *testing.T) {
	storage := stablestore.NewRollbackStore(stablestore.NewMemStore())
	st := newReplicatedStack(t, storage, 1, []uint32{1}, true, 2, 2)
	sess := st.session(1)
	for i := 1; i <= 4; i++ {
		if _, err := sess.Do(kvs.Put("doc", fmt.Sprintf("draft-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.server.AttackRollback(0, 2); err != nil {
		t.Fatalf("AttackRollback: %v", err)
	}
	get := func(when string) {
		t.Helper()
		res, err := sess.Do(kvs.Get("doc"))
		if err != nil {
			t.Fatalf("get %s: %v", when, err)
		}
		if kv, _ := kvs.DecodeResult(res.Value); string(kv.Value) != "draft-4" {
			t.Fatalf("doc %s = %q, want draft-4", when, kv.Value)
		}
	}
	get("after the first heal")
	rs := st.server.instanceAt(0).rs
	chain := storage.LogLen(core.SlotDeltaLog) // the healed chain, past the pin
	for r, p := range rs.PeerStatuses() {
		if p.Count != chain || p.Head != rs.Head() {
			t.Fatalf("replica %d after the heal holds %d records (head level %v), want all %d",
				r, p.Count, p.Head == rs.Head(), chain)
		}
	}

	if err := st.server.Enclave(0).Restart(); err != nil {
		t.Fatal(err)
	}
	get("after the second heal")
	if err := st.server.Enclave(0).HaltedErr(); err != nil {
		t.Fatalf("second restart under the pin halted: %v", err)
	}
	if ds, err := st.server.DeploymentStatus(); err != nil || ds.Shards[0].Heals != 2 {
		t.Fatalf("status = %+v (%v), want two heals", ds, err)
	}
}

// Torn replication state, direction two: the local fsync survived but the
// peers lost (rolled back) their acknowledged mirrors. The primary's
// restart reseeds the peers from its local chain, so the replica set
// converges without the enclave ever observing a discontinuity.
func TestTornReplicationPeerLossResyncs(t *testing.T) {
	storage := stablestore.NewRollbackStore(stablestore.NewMemStore())
	st := newReplicatedStack(t, storage, 1, []uint32{1}, true, 2, 2)
	sess := st.session(1)

	for i := 1; i <= 3; i++ {
		if _, err := sess.Do(kvs.Put("k", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 2; r++ {
		if err := st.server.AttackRollbackReplica(0, r, 1); err != nil {
			t.Fatalf("AttackRollbackReplica(%d): %v", r, err)
		}
	}
	storage.ClearAttack() // the peers' own rollback pins, released
	if err := st.server.Enclave(0).Restart(); err != nil {
		t.Fatal(err)
	}

	// The restart's heal pass found nothing to fold (the local chain is
	// complete) and pushed the full window back to the lagging peers.
	res, err := sess.Do(kvs.Get("k"))
	if err != nil {
		t.Fatalf("operation after peer loss: %v", err)
	}
	kv, _ := kvs.DecodeResult(res.Value)
	if string(kv.Value) != "v3" {
		t.Fatalf("value = %q, want v3", kv.Value)
	}
	// Through the set, not the peers' enclaves: replies are released at
	// quorum, and only a set call waits for the peer still appending.
	for r, pst := range st.server.instanceAt(0).rs.PeerStatuses() {
		// 4 records: the three puts plus the get — reads advance the
		// chain too.
		if !pst.Provisioned || pst.Count != 4 {
			t.Fatalf("peer %d after resync = %+v, want the full 4-record mirror", r, pst)
		}
	}

	// End to end: the resynced peers can serve a subsequent heal.
	if err := st.server.AttackRollback(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Do(kvs.Get("k")); err != nil {
		t.Fatalf("heal from resynced peers: %v", err)
	}
	if err := st.server.Enclave(0).HaltedErr(); err != nil {
		t.Fatalf("halted despite resynced peers: %v", err)
	}
}

// Randomized replica crash/rollback fuzz: minority subsets of each shard's
// replica set are killed, rolled back and restarted while concurrent
// clients write. Invariants, per seed: no acknowledged write is lost, and
// recovery never produces a false rollback positive (a primary only halts
// if the attacker also controlled its peers, which this fuzz never does).
func TestReplicaCrashRestartFuzz(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			replicaCrashFuzz(t, seed)
		})
	}
}

func replicaCrashFuzz(t *testing.T, seed int64) {
	const (
		shards   = 2
		replicas = 2
		clients  = 3
		rounds   = 15
	)
	rng := rand.New(rand.NewSource(seed))
	storage := stablestore.NewRollbackStore(stablestore.NewMemStore())
	ids := []uint32{1, 2, 3}
	st := newReplicatedStack(t, storage, shards, ids, true, replicas, 2)

	type fuzzClient struct {
		sess  *client.ShardedSession
		keys  []string
		acked map[string]string
	}
	fcs := make([]*fuzzClient, clients)
	for i, id := range ids {
		fc := &fuzzClient{sess: st.session(id), acked: make(map[string]string)}
		for shard := 0; shard < shards; shard++ {
			fc.keys = append(fc.keys, keyOnShard(shard, shards, fmt.Sprintf("c%d", id)))
		}
		fcs[i] = fc
	}

	recoverPending := func(fc *fuzzClient, vals map[string]string) {
		t.Helper()
		for shard := 0; shard < shards; shard++ {
			if !fc.sess.HasPending(shard) {
				continue
			}
			var lastErr error
			for attempt := 0; attempt < 10; attempt++ {
				if _, err := fc.sess.Recover(shard); err != nil {
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

	downPeers := make(map[[2]int]bool) // {shard, r} → killed last round
	for round := 0; round < rounds; round++ {
		// Quiesced between rounds: release rollback pins so the next
		// attack (and final fold) sees the current mirror.
		storage.ClearAttack()
		// Revive peers killed in the previous round.
		for key, down := range downPeers {
			if down {
				if err := st.server.ReplicaEnclave(key[0], key[1]).Restart(); err != nil {
					t.Fatalf("round %d: revive peer %v: %v", round, key, err)
				}
				downPeers[key] = false
			}
		}

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
		for i, fc := range fcs {
			recoverPending(fc, attempts[i])
		}

		// Checkpoints are stored in the background: let them land before
		// the disturbance reads the storage.
		for shard := 0; shard < shards; shard++ {
			st.server.instanceAt(shard).checkpoints.Wait()
		}

		// One disturbance per round, never more than a minority of any
		// shard's replica set (1 of 3 copies).
		shard := rng.Intn(shards)
		switch rng.Intn(4) {
		case 0:
			// Kill one peer; it stays down for the whole next round.
			r := rng.Intn(replicas)
			st.server.ReplicaEnclave(shard, r).Stop()
			downPeers[[2]int{shard, r}] = true
		case 1:
			// Roll one peer's mirror back and restart it stale.
			r := rng.Intn(replicas)
			_ = st.server.AttackRollbackReplica(shard, r, 1+rng.Intn(2))
		case 2:
			// Roll the primary's log back: the peers must heal it.
			n := 1 + rng.Intn(2)
			if storage.LogLen(st.server.ShardSlot(shard, core.SlotDeltaLog)) > n {
				if err := st.server.AttackRollback(shard, n); err != nil {
					t.Fatalf("round %d: AttackRollback(%d, %d): %v", round, shard, n, err)
				}
			}
		default:
			// Honest primary restart.
			if err := st.server.Enclave(shard).Restart(); err != nil {
				t.Fatalf("round %d: honest restart of shard %d: %v", round, shard, err)
			}
		}
	}

	// Final recovery: release every pin, revive every peer, restart every
	// primary. A halt here is a false rollback positive.
	storage.ClearAttack()
	for key, down := range downPeers {
		if down {
			if err := st.server.ReplicaEnclave(key[0], key[1]).Restart(); err != nil {
				t.Fatalf("final revive of peer %v: %v", key, err)
			}
		}
	}
	for shard := 0; shard < shards; shard++ {
		if err := st.server.Enclave(shard).Restart(); err != nil {
			t.Fatalf("final restart of shard %d: %v", shard, err)
		}
	}
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
	for shard := 0; shard < shards; shard++ {
		if err := st.server.Enclave(shard).HaltedErr(); err != nil {
			t.Fatalf("false rollback positive on shard %d: %v", shard, err)
		}
	}
}

// mirrorFaultStore fails every mirror append of one replica while armed —
// a peer whose storage is out for a while, below the rollback adversary.
type mirrorFaultStore struct {
	*stablestore.MemStore
	prefix string
	armed  atomic.Bool
}

func (s *mirrorFaultStore) AppendGroup(slot string, records [][]byte) error {
	if s.armed.Load() && strings.HasPrefix(slot, s.prefix) {
		return errors.New("injected mirror fault")
	}
	return s.MemStore.AppendGroup(slot, records)
}

// Release at quorum means a peer may lack groups whose replies are out.
// The primary's log is then rolled back behind those groups while replica
// 1 still lacks them: the restart heals from replica 0, which has them
// all, loses no acknowledged write, and brings replica 1 level again.
func TestRollbackHealsFromUpToDatePeer(t *testing.T) {
	faulty := &mirrorFaultStore{MemStore: stablestore.NewMemStore(), prefix: "replica1/"}
	storage := stablestore.NewRollbackStore(faulty)
	st := newReplicatedStack(t, storage, 1, []uint32{1}, true, 2, 2)
	sess := st.session(1)

	acked := make(map[string]string)
	put := func(key, value string) {
		t.Helper()
		if _, err := sess.Do(kvs.Put(key, value)); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		acked[key] = value
	}
	put("a", "1")
	put("b", "2")
	faulty.armed.Store(true)
	put("a", "3") // acknowledged on the primary and replica 0 only
	put("c", "4")
	rs := st.server.instanceAt(0).rs
	peers := rs.PeerStatuses() // a barrier: replica 1 has given up on both groups
	faulty.armed.Store(false)
	if peers[0].Count != 4 || peers[0].Head != rs.Head() || peers[1].Count >= 4 {
		t.Fatalf("mirrors before the attack = %+v, want replica 0 complete and replica 1 short", peers)
	}

	if err := st.server.AttackRollback(0, 2); err != nil {
		t.Fatalf("AttackRollback: %v", err)
	}
	for key, want := range acked {
		res, err := sess.Do(kvs.Get(key))
		if err != nil {
			t.Fatalf("get %s after the healed rollback: %v", key, err)
		}
		if kv, _ := kvs.DecodeResult(res.Value); string(kv.Value) != want {
			t.Fatalf("%s = %q after heal, want acknowledged %q", key, kv.Value, want)
		}
	}
	if err := st.server.Enclave(0).HaltedErr(); err != nil {
		t.Fatalf("enclave halted although replica 0 held the suffix: %v", err)
	}
	if ds, err := st.server.DeploymentStatus(); err != nil || ds.Shards[0].Heals != 1 {
		t.Fatalf("status = %+v (%v), want exactly one heal", ds, err)
	}
	for r, p := range rs.PeerStatuses() {
		if !p.Provisioned || p.Head != rs.Head() {
			t.Fatalf("replica %d after the heal = %+v, want it level with the set head", r, p)
		}
	}
}
