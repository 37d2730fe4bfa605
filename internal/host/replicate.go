package host

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"lcm/internal/core"
	"lcm/internal/replication"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
)

// Chain replication and suffix healing. With Config.Replicas > 0 every
// shard primary gets a replica set: f peer enclaves (replication.Factory)
// over their own storage namespaces, mirroring each committed group of
// sealed delta records. The committer releases a group's replies only
// after the configured write quorum (local fsync + quorum-1 peer acks)
// holds, so an acknowledged write survives the loss — or rollback — of
// any minority of replicas. When a restart finds the local chain stale,
// healLocked fetches the missing suffix from a peer, has the enclave
// verify and fold it (core's callChainSync), rewrites the local log to
// the healed chain, and reseeds the peers — the rollback attacks that
// used to halt the deployment now require rolling back the primary host
// and every peer holding the suffix (f+1 hosts).

// replicaPrefix names peer r's storage namespace for one shard. It nests
// under the shard's generation namespace so reshard GC reclaims replica
// mirrors together with their shard's chain.
func replicaPrefix(gen uint64, shards, shard, r int) string {
	if gen == 0 && shards == 1 {
		return fmt.Sprintf("replica%d", r)
	}
	return fmt.Sprintf("%s/replica%d", genShardPrefix(gen, shard), r)
}

// replicaSetFor returns (creating and caching on first use) the replica
// set serving one shard in one generation, or nil when replication is
// off. The cache key is the generation-qualified shard prefix, so an
// enclave replaced by RecoverShard rejoins the same peers, while a
// reshard's new generation gets fresh ones.
func (s *Server) replicaSetFor(gen uint64, shards, shard int) (*replication.Set, error) {
	if s.cfg.Replicas <= 0 {
		return nil, nil
	}
	key := genShardPrefix(gen, shard)
	s.mu.Lock()
	rs, ok := s.replicaSets[key]
	s.mu.Unlock()
	if ok {
		return rs, nil
	}
	peers := make([]*tee.Enclave, 0, s.cfg.Replicas)
	for r := 0; r < s.cfg.Replicas; r++ {
		prefix := replicaPrefix(gen, shards, shard, r)
		enclave := s.cfg.Platform.NewEnclave(replication.Factory(),
			stablestore.NewNamespaced(s.cfg.Store, prefix))
		enclave.SetLabel(prefix)
		if err := enclave.Start(); err != nil {
			return nil, fmt.Errorf("host: start replica %s: %w", prefix, err)
		}
		peers = append(peers, enclave)
	}
	rs, err := replication.NewSet(replication.Config{
		Peers:       peers,
		Quorum:      s.cfg.Quorum,
		Attestation: s.attestation,
	})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if cached, ok := s.replicaSets[key]; ok {
		s.mu.Unlock()
		rs.Stop()
		return cached, nil
	}
	s.replicaSets[key] = rs
	s.mu.Unlock()
	return rs, nil
}

// healLocked runs once per enclave epoch, before the first call of that
// epoch, with the instance's persist lock held: it probes the enclave's
// chain position, offers it the longest peer suffix beyond that position,
// rewrites the local log to the healed chain, and reseeds the peers from
// the chain the enclave verified. Peer failures degrade healing to the
// paper's detect-and-halt behaviour; they never make things worse.
func (s *Server) healLocked(inst *instance) {
	if inst.rs == nil {
		return
	}
	epoch := inst.enclave.Epoch()
	if epoch == inst.healedEpoch {
		return
	}
	// Results sealed before the restart may still sit at the committer;
	// make them durable (and replicated) first so the peers' view covers
	// every released reply before we compare chains.
	inst.cm.flush()
	inst.healedEpoch = epoch
	cur, err := s.chainSync(inst, nil)
	if err != nil {
		return // unprovisioned, frozen or halted: nothing to heal
	}
	var chain [][]byte // the enclave's verified chain, once known
	if suffix := inst.rs.FetchSuffix(cur.Head); len(suffix) > 0 {
		res, err := s.chainSync(inst, suffix)
		if err != nil {
			return // a halt during fold sticks; detection already fired
		}
		cur = res
		if res.Folded > 0 {
			chain = s.rewriteHealedLog(inst, cur, suffix[:res.Folded])
			inst.heals++
		}
	}
	// Reseed the set from the verified chain so lagging (or reset) peers
	// converge on the enclave's view. The host's log stands in for it only
	// when it is exactly that long: a shorter view (a rollback pin still
	// in force) would rebuild every peer down to the stale head and destroy
	// the copies the next heal needs.
	blob, err := inst.store.Load(s.cfg.StateSlot)
	if err != nil {
		return
	}
	if chain == nil {
		if chain, err = inst.store.LoadLog(core.SlotDeltaLog); err != nil || len(chain) != cur.ChainLen {
			return
		}
	}
	inst.rs.Reseed(sha256.Sum256(blob), chain)
}

func (s *Server) chainSync(inst *instance, suffix [][]byte) (*core.ChainSyncResult, error) {
	resp, err := inst.enclave.Call(core.EncodeChainSyncCall(suffix))
	if err != nil {
		return nil, err
	}
	return core.DecodeChainSyncResult(resp)
}

// rewriteHealedLog replaces the local delta log with exactly the chain
// the enclave now holds — the local prefix it folded at recovery plus the
// peer suffix it folded just now — and returns that chain, or nil when
// the host's view of the log does not match the enclave's. A blind append
// would duplicate records whenever the stale local view hid a longer
// on-disk log; the rewrite is idempotent, and a crash inside it loses
// nothing — every record is held by a quorum of peers and the next
// restart re-heals.
func (s *Server) rewriteHealedLog(inst *instance, cur *core.ChainSyncResult, suffix [][]byte) [][]byte {
	local, err := inst.store.LoadLog(core.SlotDeltaLog)
	if err != nil {
		return nil
	}
	keep := cur.ChainLen - len(suffix)
	if keep < 0 || keep > len(local) {
		return nil // view mismatch: leave the log alone, memory is healed
	}
	healed := append(append([][]byte(nil), local[:keep]...), suffix...)
	if err := inst.store.TruncateLog(core.SlotDeltaLog); err == nil {
		_ = inst.store.AppendGroup(core.SlotDeltaLog, healed)
	}
	return healed
}

// resyncBaseLocked re-anchors the replica set after a barrier ecall that
// may have persisted a fresh state blob inside the enclave (provisioning,
// admin ops, migration import) — chain events the committer never sees.
// Called with the instance's persist lock held.
func (s *Server) resyncBaseLocked(inst *instance) {
	if inst.rs == nil {
		return
	}
	blob, err := inst.store.Load(s.cfg.StateSlot)
	if err != nil {
		return
	}
	if h := sha256.Sum256(blob); h != inst.rs.Base() {
		inst.rs.ResetBase(h)
	}
}

// healsCount reads the instance's heal counter behind its persist lock.
func (inst *instance) healsCount() int {
	inst.pm.Lock()
	defer inst.pm.Unlock()
	return inst.heals
}

// RecoverShard replaces a shard's (typically halted) primary enclave with
// a fresh one over the same storage namespace and re-registers it with
// the shard's queue and committer. On the original platform the new
// enclave recovers by itself (the sealing key opens the key blob and the
// chain re-folds); a cross-platform recovery additionally needs the
// admin's kP injection (core.Admin.Recover) before the shard serves. The
// old instance's goroutines drain their queue with errors and are left to
// the garbage collector.
func (s *Server) RecoverShard(shard int) error {
	s.mu.Lock()
	if shard < 0 || shard >= s.shards {
		shards := s.shards
		s.mu.Unlock()
		return fmt.Errorf("host: shard %d out of range (%d shards)", shard, shards)
	}
	store := s.shardStores[shard]
	label := genShardPrefix(s.gen, shard)
	gen, shards := s.gen, s.shards
	s.mu.Unlock()

	enclave := s.cfg.Platform.NewEnclave(s.cfg.Factory, store)
	enclave.SetLabel(label)
	if err := enclave.Start(); err != nil {
		return fmt.Errorf("host: start recovery enclave %s: %w", label, err)
	}
	rs, err := s.replicaSetFor(gen, shards, shard)
	if err != nil {
		return err
	}
	inst := s.newInstance(enclave, store, shard, rs)
	s.mu.Lock()
	s.instances[shard] = inst
	s.mu.Unlock()
	s.startInstance(inst)
	return nil
}

// ReplicaEnclave exposes peer r of one shard's replica set (nil when out
// of range or unreplicated) — for tests and attack tooling.
func (s *Server) ReplicaEnclave(shard, r int) *tee.Enclave {
	inst := s.instanceAt(shard)
	if inst == nil || inst.rs == nil {
		return nil
	}
	return inst.rs.PeerEnclave(r)
}

// AttackRollbackReplica rolls back peer r's mirror of the given shard by
// n records and restarts the peer — the replica-side half of a full
// rollback attack. Rolling back the primary alone (AttackRollback) is
// healed from the peers; rolling back the primary and every peer is the
// f+1-host compromise, which clients still detect.
func (s *Server) AttackRollbackReplica(shard, r, n int) error {
	rbs, ok := s.cfg.Store.(*stablestore.RollbackStore)
	if !ok {
		return errors.New("host: rollback attack needs a RollbackStore")
	}
	s.mu.Lock()
	gen, shards := s.gen, s.shards
	s.mu.Unlock()
	if shard < 0 || shard >= shards {
		return fmt.Errorf("host: shard %d out of range (%d shards)", shard, shards)
	}
	peer := s.ReplicaEnclave(shard, r)
	if peer == nil {
		return fmt.Errorf("host: shard %d has no replica %d", shard, r)
	}
	slot := stablestore.NamespacedSlot(replicaPrefix(gen, shards, shard, r), replication.SlotMirror)
	if !rbs.RollbackLogBy(slot, n) {
		return fmt.Errorf("host: no mirror version %d records back on shard %d replica %d", n, shard, r)
	}
	if err := peer.Restart(); err != nil {
		return fmt.Errorf("host: restart replica %s with stale mirror: %w", peer.Label(), err)
	}
	return nil
}
