package host

import (
	"errors"
	"fmt"
	"time"

	"lcm/internal/core"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/wire"
)

// ReshardStats summarizes one completed live reshard.
type ReshardStats struct {
	Gen       uint64
	OldShards int
	NewShards int
	// Pause is the coordinator's end-to-end freeze window: from the
	// challenge on the lead until the new generation's instances serve.
	// Clients additionally pay one refresh round trip on their next
	// operation.
	Pause time.Duration
	// AdminHandoff is the new generation's key set sealed to the admin's
	// reshard channel (empty unless the call relayed one). The host only
	// relays it — the admin opens it with core.Admin.AdoptReshard.
	AdminHandoff core.SealedPayload
}

// Reshard grows (or shrinks) the live deployment to newShards keyspace
// shards while the server keeps accepting connections. It drives the
// enclave-side protocol of internal/core/reshard.go:
//
//   - challenge the lead (source shard 0) and quote every peer source
//     and every fresh target enclave over its nonce;
//   - BEGIN on the lead (mints the generation's keys, freezes it), then
//     PREPARE on each peer (freezes them) — from here on batches are
//     refused with core.ErrResharding and affected clients keep their
//     operations pending;
//   - stage every source's sealed chain into every target's storage
//     namespace with the streaming CopyStorage (the bulk state never
//     crosses a secure channel);
//   - EXPORT each source (pieces + client handoffs; the sources stop
//     permanently), IMPORT each target (fold + verify + split + merge);
//   - swap the routing: the new instances become the shard primaries,
//     existing connections turn stale (their frames are answered with a
//     refresh error), and the handoff bundle is served on
//     wire.FrameReshardInfo for clients to verify and adopt.
//
// adminChannel, if non-nil, is the admin's sealed reshard channel
// (core.Admin.ReshardChannel): the lead seals the new generation's keys
// to it, the returned stats carry them (AdminHandoff), and membership
// changes keep working after the move.
//
// Until the first EXPORT the reshard is abortable: any failure unfreezes
// the sources and the old generation resumes serving. After EXPORT the
// sources are gone (the protocol's point of no return), so a failure
// past it leaves the deployment down and the error says so — the staged
// state remains on storage for recovery.
func (s *Server) Reshard(newShards int, adminChannel []byte) (*ReshardStats, error) {
	return s.reshard(s, newShards, adminChannel)
}

// MigrateTo moves the deployment onto dst, a server on another platform
// (Sec. 4.6.2): a reshard that keeps the shard count and starts its
// targets on dst — its platform, program factory and storage. dst must
// be fresh: at generation 0, with enclaves nobody provisioned. Once the
// targets imported, dst serves the new generation, and the origin moves
// to it too: it keeps serving the generation's handoff bundle, so its
// stale clients verify the handoffs and adopt the new keys with
// client.ShardedSession.Refresh, dialing dst. The origin's retired
// enclaves refuse everything with core.ErrReshardedAway.
func (s *Server) MigrateTo(dst *Server, adminChannel []byte) (*ReshardStats, error) {
	if dst == nil || dst == s {
		return nil, errors.New("host: migrate to another server")
	}
	return s.reshard(dst, s.Shards(), adminChannel)
}

// beginReshard marks s as running a reshard, as its source or as a
// migration's destination, unless one already runs.
func (s *Server) beginReshard() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.resharding {
		return errors.New("host: a reshard is already in progress")
	}
	s.resharding = true
	return nil
}

func (s *Server) endReshard() {
	s.mu.Lock()
	s.resharding = false
	s.mu.Unlock()
}

// fresh refuses a migration destination that holds a deployment: one
// past generation 0, or one whose enclaves are provisioned.
func (s *Server) fresh() error {
	if gen := s.Gen(); gen != 0 {
		return fmt.Errorf("host: migration target is at generation %d, not fresh", gen)
	}
	for shard := 0; shard < s.Shards(); shard++ {
		status, err := core.QueryStatus(s.ShardCall(shard))
		if err != nil {
			return fmt.Errorf("host: migration target shard %d: %w", shard, err)
		}
		if status.Provisioned {
			return fmt.Errorf("host: migration target shard %d is already provisioned", shard)
		}
	}
	return nil
}

// newTargetEnclave creates a reshard target; a test wraps it to see what
// an attempt leaves running.
var newTargetEnclave = (*tee.Platform).NewEnclave

// reshard moves s's deployment to newShards target enclaves started on
// dst: s itself for a reshard, a fresh server for a migration.
func (s *Server) reshard(dst *Server, newShards int, adminChannel []byte) (*ReshardStats, error) {
	if newShards < 1 || newShards > wire.MaxShards {
		return nil, fmt.Errorf("host: reshard to %d shards (want 1..%d)", newShards, wire.MaxShards)
	}
	if err := s.beginReshard(); err != nil {
		return nil, err
	}
	defer s.endReshard()
	if dst != s {
		if err := dst.beginReshard(); err != nil {
			return nil, err
		}
		defer dst.endReshard()
		if err := dst.fresh(); err != nil {
			return nil, err
		}
	}
	s.mu.Lock()
	oldShards := s.shards
	gen := s.gen + 1
	sources := append([]*instance(nil), s.instances[:oldShards]...)
	s.mu.Unlock()
	if dst == s && newShards == oldShards {
		return nil, fmt.Errorf("host: deployment already has %d shards", newShards)
	}

	start := time.Now()
	targetStores := make([]stablestore.Store, newShards)
	targets := make([]*tee.Enclave, newShards)
	targetQuotes := make([][]byte, newShards)
	// stranded stops the target enclaves this attempt started, so failed
	// attempts do not accumulate live instances, and reports err. The
	// staged gen<g> storage copies stay on disk; the next attempt uses
	// generation g+1's fresh namespaces and the operator reclaims
	// abandoned ones (see ROADMAP).
	stranded := func(err error) (*ReshardStats, error) {
		for _, target := range targets {
			if target != nil {
				target.Stop()
			}
		}
		return nil, err
	}
	// abort also unfreezes every source that prepared (sources that never
	// froze answer the abort as a no-op): before EXPORT, nothing is lost.
	abort := func(err error) (*ReshardStats, error) {
		for _, src := range sources {
			_, _ = s.instanceBarrierECall(src, core.EncodeReshardAbortCall())
		}
		return stranded(err)
	}

	// Challenge the lead and collect quotes over its nonce.
	nonce, err := s.instanceBarrierECall(sources[0], core.EncodeReshardChallengeCall())
	if err != nil {
		return abort(fmt.Errorf("host: reshard challenge: %w", err))
	}
	for j := 0; j < newShards; j++ {
		store := dst.storeForShard(gen, newShards, j)
		enclave := newTargetEnclave(dst.cfg.Platform, dst.cfg.Factory, store)
		enclave.SetLabel(genShardPrefix(gen, j))
		if err := enclave.Start(); err != nil {
			return abort(fmt.Errorf("host: start reshard target %d: %w", j, err))
		}
		quote, err := enclave.Call(core.EncodeAttestCall(nonce))
		if err != nil {
			return abort(fmt.Errorf("host: quote reshard target %d: %w", j, err))
		}
		targetStores[j], targets[j], targetQuotes[j] = store, enclave, quote
	}
	peerQuotes := make([][]byte, oldShards-1)
	for i := 1; i < oldShards; i++ {
		quote, err := s.instanceBarrierECall(sources[i], core.EncodeAttestCall(nonce))
		if err != nil {
			return abort(fmt.Errorf("host: quote reshard peer %d: %w", i, err))
		}
		peerQuotes[i-1] = quote
	}

	// BEGIN freezes the lead; PREPARE freezes each peer. Their barrier
	// ecalls flush the committers first, so once every source is frozen
	// the on-disk chains are final.
	beginResp, err := s.instanceBarrierECall(sources[0],
		core.EncodeReshardBeginCall(newShards, targetQuotes, peerQuotes, adminChannel))
	if err != nil {
		return abort(fmt.Errorf("host: reshard begin: %w", err))
	}
	begin, err := core.DecodeReshardBeginResult(beginResp)
	if err != nil {
		return abort(err)
	}
	if len(begin.PeerPayloads) != oldShards-1 || len(begin.TargetPayloads) != newShards {
		return abort(fmt.Errorf("host: reshard begin result covers %d peers / %d targets, want %d / %d",
			len(begin.PeerPayloads), len(begin.TargetPayloads), oldShards-1, newShards))
	}
	for i := 1; i < oldShards; i++ {
		if _, err := s.instanceBarrierECall(sources[i],
			core.EncodeReshardPrepareCall(begin.PeerPayloads[i-1])); err != nil {
			return abort(fmt.Errorf("host: reshard prepare shard %d: %w", i, err))
		}
	}

	// Stage every source chain into every target namespace. Still
	// abortable: nothing has left the old generation yet, and each new
	// generation writes under its own prefix.
	for i, src := range sources {
		for j := range targets {
			staging := stablestore.NewNamespaced(targetStores[j], fmt.Sprintf("src%d", i))
			if err := CopyStorage(src.store, staging); err != nil {
				return abort(fmt.Errorf("host: stage shard %d chain for target %d: %w", i, j, err))
			}
		}
	}

	// EXPORT: the point of no return. The sources stop serving
	// permanently; a failure from here on stops the targets and leaves
	// the deployment down.
	exports := make([]*core.ReshardExportResult, oldShards)
	for i, src := range sources {
		resp, err := s.instanceBarrierECall(src, core.EncodeReshardExportCall())
		if err != nil {
			if i == 0 {
				// The lead refused: nothing exported, still abortable.
				return abort(fmt.Errorf("host: reshard export shard 0: %w", err))
			}
			return stranded(fmt.Errorf("host: reshard export shard %d (deployment needs recovery): %w", i, err))
		}
		export, err := core.DecodeReshardExportResult(resp)
		if err == nil && len(export.Pieces) != newShards {
			err = fmt.Errorf("host: shard %d exported %d pieces, want %d", i, len(export.Pieces), newShards)
		}
		if err != nil {
			return stranded(fmt.Errorf("host: reshard export shard %d (deployment needs recovery): %w", i, err))
		}
		exports[i] = export
	}

	// IMPORT on every target: fold the staged chains, verify the pinned
	// heads, merge the fragments, persist under the new keys.
	for j, target := range targets {
		pieces := make([][]byte, oldShards)
		for i := range exports {
			pieces[i] = exports[i].Pieces[j]
		}
		if _, err := target.Call(core.EncodeReshardImportCall(begin.TargetPayloads[j], pieces)); err != nil {
			return stranded(fmt.Errorf("host: reshard import target %d (deployment needs recovery): %w", j, err))
		}
	}

	// Swap: the new generation's instances become dst's shard primaries.
	handoffs := make([][]byte, oldShards)
	for i, export := range exports {
		handoffs[i] = export.Handoff
	}
	info := &core.ReshardInfo{
		Gen:       gen,
		OldShards: oldShards,
		NewShards: newShards,
		Handoffs:  handoffs,
	}
	instances := make([]*instance, newShards)
	for j := range targets {
		rs, err := dst.replicaSetFor(gen, newShards, j)
		if err != nil {
			return stranded(fmt.Errorf("host: start replica set for target %d (deployment needs recovery): %w", j, err))
		}
		instances[j] = dst.newInstance(targets[j], targetStores[j], j, rs)
	}
	encoded := info.Encode()
	dst.mu.Lock()
	replaced := dst.instances
	dst.gen = gen
	dst.shards = newShards
	dst.instances = instances
	dst.shardStores = targetStores
	dst.routeOverride = make(map[int]int)
	dst.reshardInfos[gen] = encoded
	dst.mu.Unlock()
	for _, inst := range instances {
		dst.startInstance(inst)
	}
	// Old instances stay allocated but unroutable: stale connections are
	// answered with a refresh error before any frame reaches them, and
	// their (now terminal) enclaves refuse everything anyway. A migrated
	// origin moves to the new generation too, to serve its bundle to the
	// stale clients; the destination's unprovisioned enclaves stop.
	if dst != s {
		s.mu.Lock()
		s.gen = gen
		s.reshardInfos[gen] = encoded
		s.mu.Unlock()
		for _, inst := range replaced {
			inst.enclave.Stop()
		}
	}

	return &ReshardStats{
		Gen:          gen,
		OldShards:    oldShards,
		NewShards:    newShards,
		Pause:        time.Since(start),
		AdminHandoff: begin.AdminPayload,
	}, nil
}
