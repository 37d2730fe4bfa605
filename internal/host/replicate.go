package host

import (
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
	// converge on the enclave's view. The host's segments stand in for it
	// only when they are exactly that long: a shorter view (a rollback pin
	// still in force) would rebuild every peer down to the stale head and
	// destroy the copies the next heal needs.
	if chain == nil {
		if chain = loadChain(inst.store, cur.BaseSeg, cur.Seg); len(chain) != cur.ChainLen {
			return
		}
	}
	inst.rs.Reseed(cur.Base, chain)
}

// loadChain concatenates log segments from through to, or returns nil
// when one cannot be read.
func loadChain(store stablestore.Store, from, to uint64) [][]byte {
	var chain [][]byte
	for seg := from; seg <= to; seg++ {
		records, err := store.LoadLog(core.SegmentSlot(seg))
		if err != nil {
			return nil
		}
		chain = append(chain, records...)
	}
	return chain
}

func (s *Server) chainSync(inst *instance, suffix [][]byte) (*core.ChainSyncResult, error) {
	resp, err := inst.enclave.Call(core.EncodeChainSyncCall(suffix))
	if err != nil {
		return nil, err
	}
	return core.DecodeChainSyncResult(resp)
}

// rewriteHealedLog makes the local segments hold exactly the chain the
// enclave now holds — the records it folded at recovery plus the peer
// suffix it folded just now, rewritten into its current segment — and
// returns that chain, or nil when the host's view does not match. A blind
// append would duplicate records a stale local view hid; the rewrite is
// idempotent, and a crash inside it loses nothing — a quorum of peers
// holds every record and the next restart re-heals.
func (s *Server) rewriteHealedLog(inst *instance, cur *core.ChainSyncResult, suffix [][]byte) [][]byte {
	var below [][]byte
	if cur.Seg > cur.BaseSeg {
		below = loadChain(inst.store, cur.BaseSeg, cur.Seg-1)
	}
	slot := core.SegmentSlot(cur.Seg)
	local, err := inst.store.LoadLog(slot)
	if err != nil {
		return nil
	}
	keep := cur.ChainLen - len(suffix) - len(below)
	if keep < 0 || keep > len(local) {
		return nil // view mismatch: leave the log alone, memory is healed
	}
	healed := append(append([][]byte(nil), local[:keep]...), suffix...)
	if err := inst.store.TruncateLog(slot); err == nil {
		_ = inst.store.AppendGroup(slot, healed)
	}
	return append(below, healed...)
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
