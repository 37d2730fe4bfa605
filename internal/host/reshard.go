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
	// reshard channel (empty unless ReshardWithAdmin was used). The host
	// only relays it — the admin opens it with core.Admin.AdoptReshard.
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
// Until the first EXPORT the reshard is abortable: any failure unfreezes
// the sources and the old generation resumes serving. After EXPORT the
// sources are gone (the protocol's point of no return, like a migration
// origin), so a failure past it leaves the deployment down and the error
// says so — the staged state remains on storage for recovery.
func (s *Server) Reshard(newShards int) (*ReshardStats, error) {
	return s.reshard(newShards, nil)
}

// ReshardWithAdmin runs Reshard while relaying the admin's sealed
// reshard-channel blob (core.Admin.ReshardChannel) to the lead, so the
// returned stats carry the new generation's admin handoff and membership
// changes keep working after the move.
func (s *Server) ReshardWithAdmin(newShards int, adminChannel []byte) (*ReshardStats, error) {
	return s.reshard(newShards, adminChannel)
}

func (s *Server) reshard(newShards int, adminChannel []byte) (*ReshardStats, error) {
	if newShards < 1 || newShards > wire.MaxShards {
		return nil, fmt.Errorf("host: reshard to %d shards (want 1..%d)", newShards, wire.MaxShards)
	}
	s.mu.Lock()
	if s.resharding {
		s.mu.Unlock()
		return nil, errors.New("host: a reshard is already in progress")
	}
	s.resharding = true
	oldShards := s.shards
	gen := s.gen + 1
	sources := append([]*instance(nil), s.instances[:oldShards]...)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.resharding = false
		s.mu.Unlock()
	}()
	if newShards == oldShards {
		return nil, fmt.Errorf("host: deployment already has %d shards", newShards)
	}

	start := time.Now()
	targetStores := make([]stablestore.Store, newShards)
	targets := make([]*tee.Enclave, newShards)
	targetQuotes := make([][]byte, newShards)
	abort := func(err error) (*ReshardStats, error) {
		// Unfreeze every source that prepared (sources that never froze
		// answer the abort as a no-op) and stop the target enclaves this
		// attempt started, so retried reshards do not accumulate live
		// instances. The staged gen<g> storage copies stay on disk; the
		// next attempt uses generation g+1's fresh namespaces and the
		// operator reclaims abandoned ones (see ROADMAP).
		for _, src := range sources {
			_, _ = s.instanceBarrierECall(src, core.EncodeReshardAbortCall())
		}
		for _, target := range targets {
			if target != nil {
				target.Stop()
			}
		}
		return nil, err
	}

	// Challenge the lead and collect quotes over its nonce.
	nonce, err := s.instanceBarrierECall(sources[0], core.EncodeReshardChallengeCall())
	if err != nil {
		return abort(fmt.Errorf("host: reshard challenge: %w", err))
	}
	for j := 0; j < newShards; j++ {
		store := s.storeForShard(gen, newShards, j)
		enclave := s.cfg.Platform.NewEnclave(s.cfg.Factory, store)
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
	// permanently; a failure from here on leaves the deployment down.
	exports := make([]*core.ReshardExportResult, oldShards)
	for i, src := range sources {
		resp, err := s.instanceBarrierECall(src, core.EncodeReshardExportCall())
		if err != nil {
			if i == 0 {
				// The lead refused: nothing exported, still abortable.
				return abort(fmt.Errorf("host: reshard export shard 0: %w", err))
			}
			return nil, fmt.Errorf("host: reshard export shard %d (deployment needs recovery): %w", i, err)
		}
		export, err := core.DecodeReshardExportResult(resp)
		if err == nil && len(export.Pieces) != newShards {
			err = fmt.Errorf("host: shard %d exported %d pieces, want %d", i, len(export.Pieces), newShards)
		}
		if err != nil {
			return nil, fmt.Errorf("host: reshard export shard %d (deployment needs recovery): %w", i, err)
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
			return nil, fmt.Errorf("host: reshard import target %d (deployment needs recovery): %w", j, err)
		}
	}

	// Swap: the new generation's instances become the shard primaries.
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
		rs, err := s.replicaSetFor(gen, newShards, j)
		if err != nil {
			return nil, fmt.Errorf("host: start replica set for target %d (deployment needs recovery): %w", j, err)
		}
		instances[j] = s.newInstance(targets[j], targetStores[j], j, rs)
	}
	s.mu.Lock()
	s.gen = gen
	s.shards = newShards
	s.instances = instances
	s.shardStores = targetStores
	s.routeOverride = make(map[int]int)
	s.reshardInfos[gen] = info.Encode()
	s.mu.Unlock()
	for _, inst := range instances {
		s.startInstance(inst)
	}
	// Old instances stay allocated but unroutable: stale connections are
	// answered with a refresh error before any frame reaches them, and
	// their (now terminal) enclaves refuse everything anyway.

	return &ReshardStats{
		Gen:          gen,
		OldShards:    oldShards,
		NewShards:    newShards,
		Pause:        time.Since(start),
		AdminHandoff: begin.AdminPayload,
	}, nil
}
