// Package host implements the untrusted server application of Sec. 5.3: it
// handles socket communication, batches incoming client requests into
// bounded queues, performs the ecall into the enclave, persists the sealed
// state the enclave piggybacks on its reply, and forwards the REPLY
// messages to the clients.
//
// # Sharding
//
// LCM's protection is per trusted context: the hash chain, the client
// context map V and the sealed delta chain all belong to one enclave
// instance. Nothing couples two contexts — which means the keyspace shards
// naturally. A sharded Server (Config.Shards > 1) runs N enclave
// instances, each a fully independent LCM deployment:
//
//   - its own trusted program instance, provisioned separately (own kP,
//     own kC, own client group, own hash chain);
//   - its own storage namespace on the shared Store ("shard<i>/<slot>",
//     via stablestore.Namespaced), so sealed blobs and delta logs never
//     collide;
//   - its own batch queue, persistence barrier and committer, so shards
//     persist and fsync independently.
//
// Routing is the client's job, not the host's: INVOKE ciphertexts are
// opaque to the untrusted server, so the client computes the shard from
// the operation's service key (service.Sharder + service.ShardIndex)
// before sealing, and prefixes every frame with a one-byte shard index.
// The byte is pure routing metadata — each shard's INVOKEs are sealed
// under that shard's own communication key, so a frame the host misroutes
// (by accident or malice) fails authentication at the receiving shard and
// halts it, exactly like any other tampering. The host merely demultiplexes
// frames onto per-shard queues.
//
// The host is exactly the component the threat model distrusts. Besides
// the correct behaviour it therefore also implements the attacks of
// Sec. 2.3 — restarting an enclave from a stale state (rollback), running
// multiple enclave instances over one shard's storage and partitioning
// clients between them (forking), and replaying client messages — so that
// tests, examples and the evaluation can exercise LCM's detection
// guarantees against a real adversary rather than a mock. The attacks are
// shard-addressable: AttackRollback and AttackFork take the shard under
// attack, and detection stays local to it — the other shards' chains are
// untouched, which the per-shard fork-linearizability tests verify.
package host

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"lcm/internal/core"
	"lcm/internal/replication"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
	"lcm/internal/wire"
)

// Frame kinds and response codecs live in internal/wire (shared with the
// client library); the host only routes them.

// Config assembles a Server.
type Config struct {
	// Platform hosts the enclaves.
	Platform *tee.Platform
	// Factory builds the trusted program (one fresh instance per epoch,
	// per shard).
	Factory tee.ProgramFactory
	// Store is the stable storage for the sealed blobs. Whether writes
	// fsync (Fig. 6) or not (Figs. 4-5) is the Store's configuration.
	// With Shards > 1 each shard persists under its own namespace on
	// this store.
	Store stablestore.Store
	// Shards is the number of independent enclave instances the keyspace
	// is partitioned over; 0 or 1 means the classic single-enclave
	// deployment (and keeps the unprefixed storage layout).
	Shards int
	// BatchSize caps how many invokes one ecall carries; batches form only
	// from the requests that queue behind a running ecall. 1 disables
	// batching (the paper evaluates both, Sec. 6.4).
	BatchSize int
	// StateSlot names the storage slot for piggybacked state blobs;
	// empty means the LCM default (core.SlotStateBlob). Baseline enclave
	// programs that share this host use their own slot.
	StateSlot string
	// GroupCommit lets the next ecall start while the previous result is
	// still being committed. Every sealed result (batch, beacon, epoch
	// seal, churn) is made durable by the enclave instance's committer,
	// which coalesces the records queued behind a running commit into a
	// single AppendGroup call (the baseline.AOF.AppendGroup pattern,
	// Sec. 6.4's Redis configuration) and releases replies only after the
	// covering write. With GroupCommit off, each submitter commits (or
	// waits for) its own result before it drops the persist lock, so
	// groups hold one result. Crash tolerance is the same either way;
	// non-batch ecalls flush the committer first.
	GroupCommit bool
	// Replicas adds enclave-to-enclave chain replication: every shard
	// primary gets this many peer replica enclaves mirroring its sealed
	// delta records, and a restart that finds the local chain stale heals
	// by fetching the missing suffix from a peer instead of leaving
	// clients to detect a rollback (see replicate.go). 0 disables
	// replication.
	Replicas int
	// Quorum is the number of durable copies — the primary's local fsync
	// plus peer acknowledgements — required before a reply batch is
	// released. 0 defaults to a majority of the replica set
	// (Replicas/2 + 1 peers plus the primary... i.e. (Replicas+1)/2+1
	// total). Only meaningful with Replicas > 0.
	Quorum int
	// SnapshotReads serves FrameReadInvoke requests against the enclave's
	// durable snapshot (see core/read.go) instead of refusing them. Each
	// read executes on the goroutine of the connection it arrived on,
	// outside the batch queue and the persistence barrier, so reads from
	// different connections run in parallel with each other and with the
	// write path. The host additionally confirms each commit group's
	// durability to the enclave (one tiny advance ecall) before releasing
	// the covered replies, which is what gives readers read-your-writes.
	SnapshotReads bool
	// CommitLatencyTarget bounds the extra reply latency group commit may
	// add: the committer adaptively sizes commit groups (see groupPolicy)
	// so that one group's persistence stays within this target. 0 selects
	// DefaultCommitLatencyTarget.
	CommitLatencyTarget time.Duration
	// BeaconInterval arms the chain-heartbeat beacon (clone detection):
	// every interval, each enclave instance commits a self-attesting
	// beacon record onto its sealed delta chain, coupled to the platform's
	// monotonic counter through the reserve/confirm protocol of
	// core.Trusted — so two live instances cloned from the same sealed
	// state collide on the counter within ≤ 2 intervals and the loser
	// halts with core.ErrCloneDetected. The record rides the ordinary
	// group-commit path (one coalesced append per beacon). 0 disables
	// beacons (the historical behaviour, blind to cloning).
	BeaconInterval time.Duration
	// EpochInterval arms the membership epoch ticker: every interval each
	// shard's enclave seals one membership epoch (see core/churn.go) —
	// fencing the epoch number with the platform counter, batching staged
	// and heartbeat-expired evictions behind one kC rotation. The seal's
	// sealed record commits through the committer behind the persistence
	// barrier (see epoch.go).
	// 0 disables the ticker; epochs then advance only when an admin sends
	// an explicit epoch-seal ecall.
	EpochInterval time.Duration
}

// Validate checks the configuration for inconsistent combinations and
// fills in the documented defaults (it is called by New; exported so
// operators can pre-flight a config without starting enclaves). The
// zero-ish values keep their historical meanings — Shards 0 is the
// single-shard layout, Quorum 0 a replica-set majority — while
// combinations that cannot mean anything sensible are rejected with a
// descriptive error instead of being silently "fixed".
func (c *Config) Validate() error {
	if c.Platform == nil {
		return errors.New("host: config: Platform is required")
	}
	if c.Factory == nil {
		return errors.New("host: config: Factory is required")
	}
	if c.Store == nil {
		return errors.New("host: config: Store is required")
	}
	if c.Shards < 0 {
		return fmt.Errorf("host: config: Shards must be ≥ 1 (got %d); 0 selects the single-shard default", c.Shards)
	}
	if c.Shards == 0 {
		c.Shards = 1
	}
	if c.Shards > wire.MaxShards {
		return fmt.Errorf("host: config: %d shards exceed the routing limit of %d", c.Shards, wire.MaxShards)
	}
	if c.BatchSize < 0 {
		return fmt.Errorf("host: config: BatchSize must be ≥ 1 (got %d); 0 disables batching", c.BatchSize)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1
	}
	if c.StateSlot == "" {
		c.StateSlot = core.SlotStateBlob
	}
	if c.Replicas < 0 {
		return fmt.Errorf("host: config: Replicas must be ≥ 0 (got %d)", c.Replicas)
	}
	if c.Replicas == 0 && c.Quorum != 0 {
		return fmt.Errorf("host: config: Quorum %d configured without replication (Replicas is 0)", c.Quorum)
	}
	if c.Replicas > 0 {
		if c.Quorum < 0 {
			return fmt.Errorf("host: config: Quorum must be ≥ 1 (got %d); 0 selects a replica-set majority", c.Quorum)
		}
		if c.Quorum == 0 {
			// Majority of the replica set (primary + peers).
			c.Quorum = (c.Replicas+1)/2 + 1
		}
		if c.Quorum > c.Replicas+1 {
			return fmt.Errorf("host: config: quorum %d exceeds the replica set size %d (Replicas+1)",
				c.Quorum, c.Replicas+1)
		}
	}
	if c.CommitLatencyTarget < 0 {
		return fmt.Errorf("host: config: CommitLatencyTarget must be ≥ 0 (got %v)", c.CommitLatencyTarget)
	}
	if c.CommitLatencyTarget == 0 {
		c.CommitLatencyTarget = DefaultCommitLatencyTarget
	}
	if c.BeaconInterval < 0 {
		return fmt.Errorf("host: config: BeaconInterval must be ≥ 0 (got %v); 0 disables beacons", c.BeaconInterval)
	}
	if c.EpochInterval < 0 {
		return fmt.Errorf("host: config: EpochInterval must be ≥ 0 (got %v); 0 disables the epoch ticker", c.EpochInterval)
	}
	return nil
}

// request is one queued invoke awaiting its batch. Its response goes
// directly to the connection, or — for one part of a multi-shard
// scatter-gather request — into the request's gather, which sends the
// combined response once every part has answered.
type request struct {
	conn   *connState
	gather *gather // nil for plain invokes
	part   int     // index within the gather
	invoke []byte
}

// respond delivers one response frame (OKFrame or ErrorFrame) for this
// request through whichever path it arrived on.
func (r request) respond(frame []byte) {
	if r.gather != nil {
		r.gather.set(r.part, frame)
		return
	}
	_ = r.conn.send(frame)
}

// gather accumulates the per-part response frames of one FrameMultiInvoke
// request. Parts complete independently on their shards' ecall and commit
// stages; the combined response is sent exactly once, when the last
// part lands. A slow or halted shard therefore delays only its own
// requests' gathers, never another connection's traffic.
type gather struct {
	conn      *connState
	mu        sync.Mutex
	parts     [][]byte
	remaining int
}

func newGather(conn *connState, n int) *gather {
	return &gather{conn: conn, parts: make([][]byte, n), remaining: n}
}

func (g *gather) set(i int, frame []byte) {
	g.mu.Lock()
	done := false
	if i >= 0 && i < len(g.parts) && g.parts[i] == nil {
		g.parts[i] = frame
		g.remaining--
		done = g.remaining == 0
	}
	g.mu.Unlock()
	if done {
		_ = g.conn.send(wire.OKFrame(wire.EncodeMultiResponse(g.parts)))
	}
}

type connState struct {
	conn    transport.Conn
	writeMu sync.Mutex
	// routes maps each shard to the enclave instance serving it for this
	// connection, fixed at accept time. The honest assignment is the
	// identity; a forking host points some shard at a fork instance.
	routes []int
	// gen is the reshard generation the routes were materialized for. A
	// connection from an older generation is stale after a reshard: its
	// frames are answered with a refresh error instead of being routed,
	// so an old-generation INVOKE can never reach (and halt) a
	// new-generation enclave whose kC it was not sealed under.
	gen uint64
}

func (c *connState) send(frame []byte) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.conn.Send(frame)
}

// instance is one enclave instance together with everything the host runs
// for it: its private storage view, batch queue, persistence barrier and
// committer. Instances 0..shards-1 are the shard primaries; later entries
// are fork instances mounted by AttackFork.
type instance struct {
	enclave *tee.Enclave
	store   stablestore.Store
	shard   int // keyspace shard this instance serves
	queue   chan request
	cm      *committer  // the only writer of sealed results
	pm      *sync.Mutex // serialize (ecall, commit hand-off) pairs vs barrier ecalls

	qmu     sync.Mutex // guards leading
	leading bool       // a goroutine leads the ecall stage (see lead)

	fence       blobFence      // orders checkpoint blobs after inline ones (see checkpoint.go)
	checkpoints sync.WaitGroup // checkpoint goroutines in flight

	// Replication state (nil/zero when unreplicated or a fork instance):
	// the shard's replica set, the enclave epoch the heal check last ran
	// for, and how many times a stale chain was healed from a peer
	// suffix. healedEpoch and heals are guarded by pm.
	rs          *replication.Set
	healedEpoch uint64
	heals       int
}

// Server is the untrusted server application.
type Server struct {
	cfg Config

	mu            sync.Mutex
	shards        int
	gen           uint64            // reshard generation (0 = as deployed)
	resharding    bool              // a Reshard call is in flight
	reshardInfos  map[uint64][]byte // encoded core.ReshardInfo per generation
	instances     []*instance
	shardStores   []stablestore.Store
	routeOverride map[int]int // shard → instance for NEW connections (forks)
	cloneSeq      int         // clones minted so far (namespace uniqueness)
	liveConns     map[*connState]struct{}

	// Replication: the attestation root replica provisioning verifies
	// against, and the replica sets keyed by generation-qualified shard
	// prefix (see replicate.go). Reshard GC state tracks which clients
	// adopted the current generation (see gc in reshard.go).
	attestation *tee.AttestationService
	replicaSets map[string]*replication.Set
	adopted     map[uint64]map[uint32]struct{}
	gcUpTo      uint64

	// newTicker builds the tick loop's tickers (realTicker outside tests).
	newTicker func(time.Duration) (<-chan time.Time, func())

	wg       sync.WaitGroup
	stop     chan struct{}
	stopOnce sync.Once
}

// shardPrefix names shard i's storage namespace in generation 0.
func shardPrefix(shard int) string { return "shard" + strconv.Itoa(shard) }

// genShardPrefix names shard j's storage namespace in the given reshard
// generation. Generation 0 keeps the historical "shard<i>" layout; each
// later generation gets a fresh sub-tree, so a reshard never overwrites
// the previous generation's sealed state — the old chain remains
// available as evidence (and for post-mortems) until the operator
// reclaims it.
func genShardPrefix(gen uint64, shard int) string {
	if gen == 0 {
		return shardPrefix(shard)
	}
	return fmt.Sprintf("gen%d/shard%d", gen, shard)
}

// New creates a server with one started enclave instance per shard and
// honest routing (each shard's traffic to its primary).
func New(cfg Config) (*Server, error) { return newServer(cfg, realTicker) }

// newServer is New with the tick loop's ticker constructor supplied.
func newServer(cfg Config, newTicker func(time.Duration) (<-chan time.Time, func())) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		newTicker:     newTicker,
		cfg:           cfg,
		shards:        cfg.Shards,
		reshardInfos:  make(map[uint64][]byte),
		routeOverride: make(map[int]int),
		liveConns:     make(map[*connState]struct{}),
		replicaSets:   make(map[string]*replication.Set),
		adopted:       make(map[uint64]map[uint32]struct{}),
		stop:          make(chan struct{}),
	}
	if cfg.Replicas > 0 {
		s.attestation = tee.NewAttestationService()
		s.attestation.Register(cfg.Platform)
	}
	for shard := 0; shard < s.shards; shard++ {
		s.shardStores = append(s.shardStores, s.storeForShard(0, cfg.Shards, shard))
	}
	for shard := 0; shard < s.shards; shard++ {
		if _, err := s.addInstance(shard); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// storeForShard builds shard's private view of the configured store in
// the given generation. A generation-0 single-shard deployment keeps the
// historical unprefixed layout.
func (s *Server) storeForShard(gen uint64, shards, shard int) stablestore.Store {
	if gen == 0 && shards == 1 {
		return s.cfg.Store
	}
	return stablestore.NewNamespaced(s.cfg.Store, genShardPrefix(gen, shard))
}

// ShardSlot returns the slot name shard uses on the underlying store —
// what adversarial tooling (rollback injection) and storage helpers need
// to address one shard's blobs from outside its namespace.
func (s *Server) ShardSlot(shard int, slot string) string {
	s.mu.Lock()
	gen, shards := s.gen, s.shards
	s.mu.Unlock()
	if gen == 0 && shards == 1 {
		return slot
	}
	return stablestore.NamespacedSlot(genShardPrefix(gen, shard), slot)
}

// Shards returns the number of keyspace shards this server currently
// runs (it changes across Reshard calls).
func (s *Server) Shards() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards
}

// Gen returns the deployment's reshard generation (0 until the first
// live reshard).
func (s *Server) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// addInstance creates, starts and registers a new enclave instance over
// the given shard's storage namespace, returning its index.
func (s *Server) addInstance(shard int) (int, error) {
	s.mu.Lock()
	if shard < 0 || shard >= s.shards {
		shards := s.shards
		s.mu.Unlock()
		return 0, fmt.Errorf("host: shard %d out of range (%d shards)", shard, shards)
	}
	store := s.shardStores[shard]
	n := len(s.instances)
	gen, shards := s.gen, s.shards
	label := genShardPrefix(s.gen, shard)
	primary := n < s.shards
	if !primary {
		label = fmt.Sprintf("%s/fork%d", label, n-s.shards+1)
	}
	s.mu.Unlock()

	// Only shard primaries replicate: a fork instance is an attack
	// artifact, and feeding its divergent chain into the shard's replica
	// set would let the attacker overwrite the honest history's mirror.
	var rs *replication.Set
	if primary {
		var err error
		if rs, err = s.replicaSetFor(gen, shards, shard); err != nil {
			return 0, err
		}
	}
	enclave := s.cfg.Platform.NewEnclave(s.cfg.Factory, store)
	enclave.SetLabel(label)
	if err := enclave.Start(); err != nil {
		return 0, fmt.Errorf("host: start enclave %s: %w", label, err)
	}
	inst := s.newInstance(enclave, store, shard, rs)
	s.mu.Lock()
	s.instances = append(s.instances, inst)
	idx := len(s.instances) - 1
	s.mu.Unlock()

	s.startInstance(inst)
	if s.cfg.SnapshotReads {
		// Arm the snapshot-read path before the instance serves anything,
		// so every batch tags its undo generation from the start. Best
		// effort: a service without snapshot support simply keeps
		// answering reads with an error, and enclave restarts re-arm
		// lazily on their first read (see snapshotRead).
		_, _ = s.instanceBarrierECall(inst, core.EncodeEnableReadsCall())
	}
	return idx, nil
}

// newInstance assembles the host-side runtime state of one enclave
// instance (queue, persistence barrier, committer) without registering or
// starting it.
func (s *Server) newInstance(enclave *tee.Enclave, store stablestore.Store, shard int, rs *replication.Set) *instance {
	inst := &instance{
		enclave: enclave,
		store:   store,
		shard:   shard,
		queue:   make(chan request, 1024),
		pm:      &sync.Mutex{},
		rs:      rs,
	}
	inst.cm = &committer{
		srv:    s,
		inst:   inst,
		wake:   make(chan struct{}, 1),
		policy: newGroupPolicy(s.cfg.CommitLatencyTarget),
	}
	return inst
}

// startInstance launches an instance's committer and (when a beacon or
// epoch interval is armed) tick loop.
func (s *Server) startInstance(inst *instance) {
	s.spawn(inst.cm.run)
	if s.cfg.BeaconInterval > 0 || s.cfg.EpochInterval > 0 {
		s.spawn(func() { s.tickLoop(inst) })
	}
}

// spawn runs f on a goroutine that Shutdown waits for.
func (s *Server) spawn(f func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		f()
	}()
}

// instanceAt returns instance idx, or nil when out of range.
func (s *Server) instanceAt(idx int) *instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx < 0 || idx >= len(s.instances) {
		return nil
	}
	return s.instances[idx]
}

// barrierECall performs a non-batch ecall against instance idx behind the
// persistence barrier: it holds the instance's persist lock — so no batch
// can seal a new record between the flush and the call — flushes any
// queued batch results, then calls. Without the lock, an admin or import
// persist (fresh blob + log truncation) inside the call could race a
// just-sealed delta record still queued at the committer, landing an
// unchained record at the head of the truncated log; a later restart
// would then discard acknowledged work and halt on a phantom rollback.
// The same lock pairs every sealing ecall with the hand-off of its result
// to the committer, for the identical reason (see processBatch).
func (s *Server) barrierECall(idx int, payload []byte) ([]byte, error) {
	inst := s.instanceAt(idx)
	if inst == nil {
		return nil, fmt.Errorf("host: no enclave instance %d", idx)
	}
	return s.instanceBarrierECall(inst, payload)
}

// instanceBarrierECall is barrierECall addressed at an instance the
// caller already holds — what the reshard coordinator uses to keep
// talking to the old generation's sources while the instance table is
// being replaced underneath the indices.
func (s *Server) instanceBarrierECall(inst *instance, payload []byte) ([]byte, error) {
	inst.pm.Lock()
	defer inst.pm.Unlock()
	s.healLocked(inst)
	inst.cm.flush()
	if core.IsEpochSealCall(payload) {
		// An epoch seal's result carries a sealed record the committer must
		// persist — routing it through the plain path would leave the
		// enclave's chain ahead of the disk (see epoch.go).
		return s.epochSealLocked(inst)
	}
	if !bytes.Equal(payload, core.EncodeStatusCall()) {
		inst.fence.advance() // it may store an inline blob (bootstrap, admin, recover)
	}
	return inst.enclave.Call(payload)
}

// Enclave returns enclave instance idx. Instances 0..Shards()-1 are the
// shard primaries (0 is the only primary in an unsharded deployment).
func (s *Server) Enclave(idx int) *tee.Enclave {
	inst := s.instanceAt(idx)
	if inst == nil {
		return nil
	}
	return inst.enclave
}

// ECall performs a raw enclave call against shard 0's primary instance —
// the path an in-process admin of an unsharded deployment uses. Like the
// networked ecall path it runs behind the persistence barrier, so status,
// admin and reshard calls see storage consistent with every
// acknowledged batch.
func (s *Server) ECall(payload []byte) ([]byte, error) {
	return s.barrierECall(0, payload)
}

// ShardECall performs a raw enclave call against the given shard's
// primary instance, behind its persistence barrier.
func (s *Server) ShardECall(shard int, payload []byte) ([]byte, error) {
	if shards := s.Shards(); shard < 0 || shard >= shards {
		return nil, fmt.Errorf("host: shard %d out of range (%d shards)", shard, shards)
	}
	return s.barrierECall(shard, payload)
}

// ShardCall returns a core.CallFunc bound to one shard's primary — what a
// per-shard admin bootstrap uses.
func (s *Server) ShardCall(shard int) core.CallFunc {
	return func(payload []byte) ([]byte, error) {
		return s.ShardECall(shard, payload)
	}
}

// routesForNewConn materializes the per-shard route table a newly accepted
// connection gets. Caller holds s.mu.
func (s *Server) routesForNewConn() []int {
	routes := make([]int, s.shards)
	for i := range routes {
		routes[i] = i
	}
	for shard, idx := range s.routeOverride {
		if shard >= 0 && shard < len(routes) && idx >= 0 && idx < len(s.instances) {
			routes[shard] = idx
		}
	}
	return routes
}

// Serve accepts connections until the listener is closed or Shutdown is
// called. It always returns a non-nil error (ErrClosed after Shutdown).
func (s *Server) Serve(l transport.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		select {
		case <-s.stop:
			conn.Close()
			return transport.ErrClosed
		default:
		}
		s.mu.Lock()
		cs := &connState{conn: conn, routes: s.routesForNewConn(), gen: s.gen}
		s.liveConns[cs] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.liveConns, cs)
				s.mu.Unlock()
			}()
			s.connLoop(cs)
		}()
	}
}

// resolveRoutes maps shard indices to the instances serving them for
// this connection. The generation check and every instance resolution
// happen under ONE critical section: checking first and resolving later
// would let a reshard swap slip in between, delivering an old-generation
// invoke to a just-started new-generation enclave (whose correct
// reaction to the failed authentication is a permanent halt). A frame
// stamped with a stale generation — or arriving on a connection accepted
// before the latest reshard — is refused wholesale with the refresh
// error; per-shard problems (out of range, no instance) fail only that
// entry. This is the single copy of the routing/refusal policy, shared
// by the plain and multi-invoke paths.
func (s *Server) resolveRoutes(cs *connState, gen uint32, shards []int) ([]*instance, []error, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if uint64(gen) != s.gen || cs.gen != s.gen {
		return nil, nil, errStaleGeneration
	}
	insts := make([]*instance, len(shards))
	errs := make([]error, len(shards))
	for i, shard := range shards {
		switch {
		case shard < 0 || shard >= len(cs.routes):
			errs[i] = fmt.Errorf("host: shard %d out of range (%d shards)", shard, len(cs.routes))
		case cs.routes[shard] < 0 || cs.routes[shard] >= len(s.instances):
			errs[i] = fmt.Errorf("host: no enclave instance for shard %d", shard)
		default:
			insts[i] = s.instances[cs.routes[shard]]
		}
	}
	return insts, errs, nil
}

// routeFrame resolves a single shard-addressed frame payload through
// resolveRoutes.
func (s *Server) routeFrame(cs *connState, payload []byte) (*instance, []byte, error) {
	shard, gen, inner, err := wire.SplitShardPayload(payload)
	if err != nil {
		return nil, nil, err
	}
	insts, errs, err := s.resolveRoutes(cs, gen, []int{shard})
	if err != nil {
		return nil, nil, err
	}
	if errs[0] != nil {
		return nil, nil, errs[0]
	}
	return insts[0], inner, nil
}

// errStaleGeneration answers routed frames from connections accepted
// before the latest reshard: their per-shard routes (and the client's
// sealed INVOKEs) belong to the old generation, so forwarding them would
// at best fail authentication at a new-generation enclave. The client
// refreshes via FrameReshardInfo (served below even on stale
// connections) and reconnects.
var errStaleGeneration = errors.New("host: deployment resharded; refresh routing via reshard info")

// connLoop reads frames from one client connection and answers each,
// except an invoke: that is answered by whichever goroutine commits it.
func (s *Server) connLoop(cs *connState) {
	defer cs.conn.Close()
	for {
		frame, err := cs.conn.Recv()
		if err != nil {
			return
		}
		if len(frame) == 0 {
			continue
		}
		kind, payload := frame[0], frame[1:]
		switch kind {
		case wire.FrameInvoke:
			inst, invoke, err := s.routeFrame(cs, payload)
			if err != nil {
				_ = cs.send(wire.ErrorFrame(err))
				continue
			}
			if s.enqueue(inst, request{conn: cs, invoke: invoke}) {
				s.lead(inst)
			}
		case wire.FrameMultiInvoke:
			// Scatter: each part joins its shard's batch queue like a
			// plain invoke; the gather sends one combined response when
			// every shard has answered. Routing (including fork
			// overrides) is per part; the generation check and every
			// part's instance resolution share one critical section for
			// the same reason as routeFrame. Every part is queued before
			// this goroutine leads any instance, so an enqueue that waits
			// at a full queue may hold the lead of the frame's earlier
			// shards; parts must name strictly increasing shards (as the
			// client sends them), so those waits can never close a cycle.
			gen, parts, err := wire.DecodeMultiShardParts(payload)
			if err == nil && len(parts) == 0 {
				err = errors.New("host: empty multi-shard frame")
			}
			for i := 1; err == nil && i < len(parts); i++ {
				if parts[i].Shard <= parts[i-1].Shard {
					err = errors.New("host: multi-shard frame parts must name strictly increasing shards")
				}
			}
			if err != nil {
				_ = cs.send(wire.ErrorFrame(err))
				continue
			}
			shards := make([]int, len(parts))
			for i, p := range parts {
				shards[i] = p.Shard
			}
			insts, partErrs, err := s.resolveRoutes(cs, gen, shards)
			if err != nil {
				_ = cs.send(wire.ErrorFrame(err))
				continue
			}
			g := newGather(cs, len(parts))
			var leads []*instance
			for i, p := range parts {
				if partErrs[i] != nil {
					g.set(i, wire.ErrorFrame(partErrs[i]))
				} else if s.enqueue(insts[i], request{conn: cs, gather: g, part: i, invoke: p.Payload}) {
					leads = append(leads, insts[i])
				}
			}
			// The shards work in parallel: all but the last instance this
			// frame leads get a goroutine of their own.
			for i, inst := range leads {
				if i < len(leads)-1 {
					s.spawn(func() { s.lead(inst) })
				} else {
					s.lead(inst)
				}
			}
		case wire.FrameReadInvoke:
			// Snapshot reads skip the batch queue entirely and execute
			// right here against the durable snapshot (see read.go).
			// Routing — including the generation check and fork
			// overrides — is identical to writes, so a forked or
			// stale-generation read is refused or detected exactly like
			// a forked write.
			inst, invoke, err := s.routeFrame(cs, payload)
			if err == nil && !s.cfg.SnapshotReads {
				err = errSnapshotReadsDisabled
			}
			if err != nil {
				_ = cs.send(wire.ErrorFrame(err))
				continue
			}
			_ = cs.send(s.snapshotRead(inst, invoke))
		case wire.FrameChurn:
			// One sealed membership message (join/leave/heartbeat); the
			// churn ecall persists its sealed change before the ack is
			// released (see epoch.go). Heartbeats yield an empty OK.
			inst, ct, err := s.routeFrame(cs, payload)
			if err != nil {
				_ = cs.send(wire.ErrorFrame(err))
				continue
			}
			reply, err := s.churnECall(inst, ct)
			if err != nil {
				_ = cs.send(wire.ErrorFrame(err))
				continue
			}
			_ = cs.send(wire.OKFrame(reply))
		case wire.FrameECall:
			// Ecalls (status, admin, reshard) act as persistence
			// barriers: queued batch results become durable first.
			inst, inner, err := s.routeFrame(cs, payload)
			if err != nil {
				_ = cs.send(wire.ErrorFrame(err))
				continue
			}
			resp, err := s.instanceBarrierECall(inst, inner)
			if err != nil {
				_ = cs.send(wire.ErrorFrame(err))
				continue
			}
			_ = cs.send(wire.OKFrame(resp))
		case wire.FrameStatus:
			ds, err := s.DeploymentStatus()
			if err != nil {
				_ = cs.send(wire.ErrorFrame(err))
				continue
			}
			_ = cs.send(wire.OKFrame(core.EncodeDeploymentStatus(ds)))
		case wire.FrameReshardInfo:
			// Every generation's bundle is retained, so a client that
			// slept through several reshards can walk them one at a
			// time, verifying each boundary's handoffs with the keys it
			// adopted at the previous one. An empty payload requests the
			// latest; [u64 gen] requests a specific generation.
			var wanted uint64
			if len(payload) == 8 {
				r := wire.NewReader(payload)
				wanted = r.U64()
			} else if len(payload) != 0 {
				_ = cs.send(wire.ErrorFrame(errors.New("host: malformed reshard info request")))
				continue
			}
			s.mu.Lock()
			if wanted == 0 {
				wanted = s.gen
			}
			info := s.reshardInfos[wanted]
			s.mu.Unlock()
			if info == nil {
				_ = cs.send(wire.ErrorFrame(fmt.Errorf("host: no reshard info for generation %d", wanted)))
				continue
			}
			_ = cs.send(wire.OKFrame(info))
		case wire.FrameReshardAdopted:
			r := wire.NewReader(payload)
			gen := r.U64()
			id := r.U32()
			if err := r.Done(); err != nil {
				_ = cs.send(wire.ErrorFrame(fmt.Errorf("host: malformed reshard adopted frame: %w", err)))
				continue
			}
			if err := s.noteReshardAdopted(gen, id); err != nil {
				_ = cs.send(wire.ErrorFrame(err))
				continue
			}
			_ = cs.send(wire.OKFrame(nil))
		default:
			_ = cs.send(wire.ErrorFrame(fmt.Errorf("host: unknown frame kind %d", kind)))
		}
	}
}

// enqueue adds req to the instance's batch queue, waiting while the queue
// is full, and reports whether the caller must now lead the ecall stage
// (no goroutine was leading it). After Shutdown it drops req.
func (s *Server) enqueue(inst *instance, req request) bool {
	select {
	case <-s.stop:
		return false
	default:
	}
	select {
	case inst.queue <- req:
	case <-s.stop:
		return false
	}
	inst.qmu.Lock()
	defer inst.qmu.Unlock()
	lead := !inst.leading
	inst.leading = true
	return lead
}

// lead runs the ecall stage for one batch (leader/follower batching): it
// takes up to BatchSize queued requests — what queued behind the previous
// ecall, so batches grow exactly when the enclave is the bottleneck
// (Sec. 5.3) — and runs processBatch. If requests are still queued it
// hands the stage to a fresh goroutine, so no connection leads for ever
// and the next ecall overlaps this commit; then it commits inline if no
// commit is running. Followers' replies go out from whichever goroutine
// commits them. After Shutdown it fails its batch and hands nothing on.
func (s *Server) lead(inst *instance) {
	// Only the leader receives, so a receive after a non-zero len never
	// blocks.
	batch := make([]request, 0, min(s.cfg.BatchSize, len(inst.queue)))
	for len(batch) < cap(batch) {
		batch = append(batch, <-inst.queue)
	}
	select {
	case <-s.stop:
		failBatch(batch, transport.ErrClosed)
		return
	default:
	}
	if len(batch) > 0 {
		s.processBatch(inst, batch)
	}
	inst.qmu.Lock()
	inst.leading = len(inst.queue) > 0
	more := inst.leading
	inst.qmu.Unlock()
	if more {
		s.spawn(func() { s.lead(inst) })
	}
	inst.cm.kick()
}

func (s *Server) processBatch(inst *instance, batch []request) {
	// The persist lock pairs this ecall atomically with handing its
	// sealed output to the committer, so a barrier ecall can never slip in
	// between and persist a chain-restarting blob ahead of an
	// already-sealed record.
	inst.pm.Lock()
	defer inst.pm.Unlock()
	// First call of a new enclave epoch: heal a stale chain from the
	// replica peers before any invoke can trip rollback detection.
	s.healLocked(inst)
	invokes := make([][]byte, len(batch))
	for i, req := range batch {
		invokes[i] = req.invoke
	}
	// The call payload is consumed (copied) by the enclave during Call, so
	// the encode buffer can be pooled: steady-state batches allocate no
	// framing buffers.
	epoch := inst.enclave.Epoch()
	w := wire.GetWriter(core.BatchCallSize(invokes))
	core.AppendBatchCall(w, invokes)
	resp, err := inst.enclave.Call(w.Bytes())
	wire.PutWriter(w)
	var result *core.BatchResult
	if err == nil {
		if result, err = core.DecodeBatchResult(resp); err != nil || len(result.Replies) != len(batch) {
			err = errors.New("host: malformed enclave response")
		}
	}
	if err != nil {
		failBatch(batch, err)
		return
	}
	_ = s.commitLocked(inst, batch, result, epoch, !s.cfg.GroupCommit)
}

// failBatch answers every request of a batch with err.
func failBatch(batch []request, err error) {
	for _, req := range batch {
		req.respond(wire.ErrorFrame(err))
	}
}

var errRestartedDuringCall = errors.New("host: enclave restarted during ecall; retry")

// commitLocked hands one sealed result to the instance's committer — the
// only code that persists sealed state, so a crash after a client saw its
// reply cannot lose the corresponding state (crash tolerance, Sec. 4.6.1 /
// Sec. 5.3) — and, when wait is set, blocks until the committer released
// or rejected it, returning the outcome. The caller holds inst.pm and
// passes the enclave epoch it read before the ecall. If a
// committer-initiated restart raced the ecall, the epoch tag may not
// match the epoch that sealed the record: the result is failed and the
// enclave restarted once more, so the chain re-folds from disk and the
// clients converge via retries.
func (s *Server) commitLocked(inst *instance, batch []request, result *core.BatchResult, epoch uint64, wait bool) error {
	if inst.enclave.Epoch() != epoch {
		_ = inst.restart()
		failBatch(batch, errRestartedDuringCall)
		return errRestartedDuringCall
	}
	req := commitReq{batch: batch, result: result, epoch: epoch}
	if wait {
		req.ack = make(chan error, 1)
	}
	if gen := inst.fence.gen.Load(); result.Cut {
		inst.checkpoints.Add(1) // before the cut's reply can go out
		defer s.spawn(func() { s.checkpoint(inst, epoch, gen, result) })
	}
	return inst.cm.submit(req)
}

// ---- Group commit ----

// commitReq is one sealed result's persistence work queued at a
// committer, or — when result is nil — a flush barrier.
type commitReq struct {
	batch  []request // replies to release; nil for beacon, epoch and churn results
	result *core.BatchResult
	epoch  uint64     // enclave epoch that sealed the result
	ack    chan error // if set (buffered, 1), receives the outcome after release or reject
}

// commitKind classifies a queued request by the write it needs.
type commitKind int

const (
	commitNone  commitKind = iota // flush barrier, or a result with nothing to persist
	commitDelta                   // one delta record: appended to its segment
	commitSeal                    // an inline blob: stored, then the segments below it dropped
)

func (r commitReq) kind() commitKind {
	switch {
	case r.result == nil:
		return commitNone
	case len(r.result.DeltaRecord) > 0:
		return commitDelta
	case len(r.result.StateBlob) == 0:
		return commitNone
	}
	return commitSeal
}

// committer is the only code in the host that makes sealed results
// durable, apart from checkpoint blobs (see checkpoint.go). It commits
// the results of one enclave instance's batches, beacon ticks, epoch
// seals and churn ecalls: consecutive delta records of one segment are
// appended as one group under a single fsync (Store.AppendGroup), and
// consecutive inline blobs collapse to one store of the last
// (subsuming) blob. Replies are
// released only after the covering write returns, and any persistence
// failure is treated as a crash — the enclave restarts, queued results
// from the failed epoch are discarded, and clients converge via retries.
//
// Commits run on whichever goroutine finds the committer idle (flat
// combining): a leader commits one group inline after dropping the
// persist lock, a waiting submitter commits until its own result is
// answered, and the resident goroutine (run) drains what queued behind a
// running commit. Whoever sets running is the only writer until it clears
// it; results queue in submission order, which pm makes chain order.
type committer struct {
	srv    *Server
	inst   *instance
	policy *groupPolicy // adaptive group cap (see groupsize.go)

	mu      sync.Mutex
	pending []commitReq   // submitted, not yet committed
	running bool          // a goroutine is committing a group
	wake    chan struct{} // (buffered, 1) results pending behind a commit

	failEpoch uint64 // results sealed in epochs <= failEpoch are dropped

	durEpoch, durSeq uint64 // the last released result's epoch and sequence number; guarded by mu

	statMu   sync.Mutex
	groups   int
	records  int
	maxGroup int
}

func (c *committer) run() {
	for {
		select {
		case <-c.wake:
		case <-c.srv.stop:
			return
		}
		for c.commit() {
		}
	}
}

// commit makes the next group durable unless another goroutine is
// committing, and reports whether results are still pending after it.
func (c *committer) commit() bool {
	c.mu.Lock()
	if c.running || len(c.pending) == 0 {
		c.mu.Unlock()
		return false
	}
	c.running = true
	n := min(len(c.pending), c.policy.size())
	group := slices.Clone(c.pending[:n])
	c.pending = slices.Delete(c.pending, 0, n)
	c.mu.Unlock()
	c.process(group)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.running = false
	return len(c.pending) > 0
}

// kick commits one group inline unless a commit is running, and leaves
// what is still pending to the resident goroutine. Every submitter that
// does not wait calls it after dropping the persist lock.
func (c *committer) kick() {
	if c.commit() {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// submit queues req; the caller holds inst.pm. A submitter that waits —
// its req carries an ack, or it finds commitGroupCeiling results already
// pending — commits inline until nothing is pending (pm keeps anyone else
// from adding to the list), or waits for the running commit to answer.
func (c *committer) submit(req commitReq) error {
	c.mu.Lock()
	if len(c.pending) >= commitGroupCeiling && req.ack == nil {
		req.ack = make(chan error, 1)
	}
	c.pending = append(c.pending, req)
	c.mu.Unlock()
	if req.ack == nil {
		return nil
	}
	for c.commit() {
	}
	select {
	case err := <-req.ack:
		return err
	case <-c.srv.stop:
		return transport.ErrClosed
	}
}

// flush blocks until every result queued before it is durable (or the
// server stops).
func (c *committer) flush() { _ = c.submit(commitReq{ack: make(chan error, 1)}) }

func (c *committer) process(pending []commitReq) {
	for i := 0; i < len(pending); {
		req := pending[i]
		if req.result != nil && req.epoch <= c.failEpoch {
			// Sealed before the restart that followed a failed write; the
			// record is no longer part of the live chain.
			c.reject(req, errStaleEpoch)
			i++
			continue
		}
		// A run of delta records of one segment commits under one fsync;
		// a run of inline blobs commits as one store of its last blob,
		// since each later blob subsumes every earlier one's effects.
		kind := req.kind()
		j := i + 1
		if kind == commitDelta || kind == commitSeal {
			for j < len(pending) && pending[j].kind() == kind && pending[j].epoch > c.failEpoch &&
				(kind == commitSeal || pending[j].result.Seg == req.result.Seg) {
				j++
			}
		}
		group := pending[i:j]
		i = j
		start := time.Now()
		switch kind {
		case commitNone:
			// A flush barrier, or a result without persistence work (a
			// pure-heartbeat churn batch; storing its empty blob would
			// destroy the state). No write, and no durable-prefix advance:
			// an earlier quorum-rejected group may still be holding it back.
			c.answer(req)
		case commitDelta:
			records := make([][]byte, len(group))
			for k, r := range group {
				records[k] = r.result.DeltaRecord
			}
			switch err := c.inst.appendReplicated(req.result.Seg, records, group[len(group)-1].result.Cut); {
			case err == nil:
				c.recordGroup(len(group), time.Since(start))
				c.release(group)
			case errors.Is(err, replication.ErrQuorum):
				// Quorum shortfall: locally durable and chain-consistent,
				// so no restart — reject the replies and let the clients
				// converge via cached-reply retries. The durable prefix
				// is NOT advanced: a reader must not see state whose
				// replies the quorum never covered.
				c.recordGroup(len(group), time.Since(start))
				for _, r := range group {
					c.reject(r, err)
				}
			default:
				c.fail(group, err)
			}
		default:
			last := group[len(group)-1].result
			if err := c.inst.storeInline(c.srv.cfg.StateSlot, last.StateBlob, last.Seg); err != nil {
				c.fail(group, err)
				continue
			}
			c.recordGroup(len(group), time.Since(start))
			c.release(group)
		}
	}
}

var errStaleEpoch = errors.New("host: batch result discarded after enclave restart; retry")

// fail handles a lost write like a crash, whatever the write was:
// results sealed in the current epoch are poisoned so a later append
// cannot leave a gap behind the lost record, the enclave restarts so its
// chain re-folds from disk, and only then does every result in the failed
// group get its error — a waiting submitter resumes against the restarted
// enclave.
func (c *committer) fail(group []commitReq, err error) {
	c.failEpoch = c.inst.enclave.Epoch()
	_ = c.inst.restart()
	for _, r := range group {
		c.reject(r, fmt.Errorf("host: persist state: %w", err))
	}
}

// appendReplicated makes one group of sealed delta records durable: the
// local log append and the replica set's mirroring run concurrently, and
// the call returns once the local append is durable AND quorum-1 peers
// have acknowledged, so the group costs max(local fsync, quorum) instead
// of their sum with durability at release time unchanged. It returns the
// local append's error if there is one (treat like a crash), else the
// set's replication.ErrQuorum (locally durable: reject the replies, keep
// the enclave), else nil. If the local append is lost while the peers took
// the group, the restarted enclave heals the suffix back from them — peers
// running ahead is exactly the recoverable direction.
func (inst *instance) appendReplicated(seg uint64, records [][]byte, cut bool) error {
	if cut { // the next segment may hold records a rolled-back, healed chain left
		if err := inst.store.TruncateLog(core.SegmentSlot(seg + 1)); err != nil {
			return err
		}
	}
	quorum := make(chan error, 1)
	if inst.rs != nil {
		go func() { quorum <- inst.rs.ReplicateGroup(records) }()
	} else {
		quorum <- nil
	}
	err := inst.store.AppendGroup(core.SegmentSlot(seg), records)
	if qerr := <-quorum; err == nil {
		err = qerr
	}
	return err
}

// release answers a group that is durable (and replicated), after
// confirming that to the enclave — before any reply in the group goes
// out: read-your-writes (see read.go).
func (c *committer) release(group []commitReq) {
	last := group[len(group)-1]
	c.srv.advanceDurable(c.inst, last.result.Seq)
	c.mu.Lock()
	c.durEpoch, c.durSeq = last.epoch, last.result.Seq
	c.mu.Unlock()
	c.confirmBeacons(group)
	for _, req := range group {
		c.answer(req)
	}
}

// answer sends one committed request's replies and acks its submitter.
func (c *committer) answer(req commitReq) {
	for i, r := range req.batch {
		r.respond(wire.OKFrame(req.result.Replies[i]))
	}
	if req.ack != nil {
		req.ack <- nil
	}
}

func (c *committer) reject(req commitReq, err error) {
	failBatch(req.batch, err)
	if req.ack != nil {
		req.ack <- err
	}
}

// recordGroup updates the counters for one committed group and feeds the
// observation (n results durable in d) back into the sizing policy.
func (c *committer) recordGroup(n int, d time.Duration) {
	c.policy.observe(n, d)
	c.statMu.Lock()
	c.groups++
	c.records += n
	if n > c.maxGroup {
		c.maxGroup = n
	}
	c.statMu.Unlock()
}

// stats returns the committer's counters.
func (c *committer) stats() (groups, records, maxGroup int) {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	return c.groups, c.records, c.maxGroup
}

// GroupCommitStats reports the deployment-wide group-commit activity,
// summed over every enclave instance's committer: commit groups written,
// batch results they covered, and the largest single group. Without
// GroupCommit every group holds one result.
func (s *Server) GroupCommitStats() (groups, records, maxGroup int) { return s.commitStats(-1) }

// commitStats sums the committer counters of every instance serving one
// shard (the primary plus any forks), or of every instance when shard < 0.
func (s *Server) commitStats(shard int) (groups, records, maxGroup int) {
	s.mu.Lock()
	insts := append([]*instance(nil), s.instances...)
	s.mu.Unlock()
	for _, inst := range insts {
		if shard >= 0 && inst.shard != shard {
			continue
		}
		g, r, m := inst.cm.stats()
		groups += g
		records += r
		maxGroup = max(maxGroup, m)
	}
	return groups, records, maxGroup
}

// DeploymentStatus aggregates the operational view of every shard: the
// primary enclave's core.Status (fetched behind the persistence barrier,
// so it is consistent with all acknowledged batches), the number of
// instances currently serving the shard, and the shard's group-commit
// counters. A shard whose status ecall fails — typically because its
// enclave halted after detecting an attack — is reported with the error
// in its entry rather than failing the whole view: the endpoint must
// stay usable exactly when detection has fired. It answers the
// wire.FrameStatus endpoint and serves in-process operators directly.
func (s *Server) DeploymentStatus() (*core.DeploymentStatus, error) {
	s.mu.Lock()
	gen, shards := s.gen, s.shards
	s.mu.Unlock()
	ds := &core.DeploymentStatus{Gen: gen}
	for shard := 0; shard < shards; shard++ {
		entry := core.ShardStatus{Shard: shard}
		resp, err := s.barrierECall(shard, core.EncodeStatusCall())
		if err == nil {
			var status *core.Status
			if status, err = core.DecodeStatus(resp); err == nil {
				entry.Status = *status
			}
		}
		if err != nil {
			entry.Err = err.Error()
		}
		s.mu.Lock()
		for _, inst := range s.instances {
			if inst.shard == shard {
				entry.Instances++
			}
		}
		s.mu.Unlock()
		entry.Groups, entry.Records, entry.MaxGroup = s.commitStats(shard)
		if inst := s.instanceAt(shard); inst != nil && inst.rs != nil {
			entry.Replicas = inst.rs.Replicas()
			entry.Quorum = inst.rs.Quorum()
			entry.ReplicasLive = inst.rs.Alive() + 1 // peers + primary
			entry.Heals = inst.healsCount()
		}
		ds.Shards = append(ds.Shards, entry)
	}
	return ds, nil
}

// Drain blocks until every batch result acknowledged so far is durable:
// for each enclave instance it takes the persistence barrier and flushes
// the group committer's queue. A graceful shutdown calls Drain after
// closing its listener (no new work arrives) and before Shutdown, so that
// an acknowledged write can never be lost to the exit itself — the same
// guarantee an in-band barrier ecall gives a single shard, extended to
// the whole deployment.
func (s *Server) Drain() {
	s.mu.Lock()
	instances := append([]*instance(nil), s.instances...)
	s.mu.Unlock()
	for _, inst := range instances {
		inst.pm.Lock()
		inst.cm.flush()
		inst.pm.Unlock()
	}
}

// Shutdown stops the committers, closes every live connection (unblocking
// their handlers) and waits for all goroutines to drain. The caller closes
// its Listener (which unblocks Serve) before calling.
func (s *Server) Shutdown() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	for cs := range s.liveConns {
		_ = cs.conn.Close()
	}
	sets := make([]*replication.Set, 0, len(s.replicaSets))
	for _, rs := range s.replicaSets {
		sets = append(sets, rs)
	}
	s.mu.Unlock()
	s.wg.Wait()
	for _, rs := range sets {
		rs.Stop()
	}
}

// ---- Malicious behaviours (Sec. 2.3) ----

// AttackRollback restarts the given shard's primary enclave after
// instructing the rollback store to serve that shard's state from n
// persisted writes ago. Under delta-log persistence the per-batch writes
// are log appends, so the attack truncates the newest log segment holding
// records by up to n records; with full-state sealing (or no segment
// holding records: the last checkpoint dropped them) it falls back to
// pinning a state-blob version up to n versions back. It requires the configured Store to
// be a *stablestore.RollbackStore. Only the attacked shard is affected —
// the other shards' chains stay live, which is exactly the locality the
// per-shard detection tests assert.
func (s *Server) AttackRollback(shard, n int) error {
	rs, ok := s.cfg.Store.(*stablestore.RollbackStore)
	if !ok {
		return errors.New("host: rollback attack needs a RollbackStore")
	}
	if shards := s.Shards(); shard < 0 || shard >= shards {
		return fmt.Errorf("host: shard %d out of range (%d shards)", shard, shards)
	}
	inst := s.instanceAt(shard)
	cur, err := s.chainSync(inst, nil) // the segment records go to
	if err != nil {
		return fmt.Errorf("host: rollback attack: %w", err)
	}
	for cur.Seg > 0 && rs.LogLen(s.ShardSlot(shard, core.SegmentSlot(cur.Seg))) == 0 {
		cur.Seg-- // a cut opened an empty one
	}
	logSlot := s.ShardSlot(shard, core.SegmentSlot(cur.Seg))
	blobSlot := s.ShardSlot(shard, core.SlotStateBlob)
	k, m := min(n, rs.LogLen(logSlot)), min(n, rs.Versions(blobSlot)-1)
	if !(k > 0 && rs.RollbackLogBy(logSlot, k)) && !(m > 0 && rs.RollbackBy(blobSlot, m)) {
		return fmt.Errorf("host: no state version %d writes back on shard %d", n, shard)
	}
	if err := inst.restart(); err != nil {
		return fmt.Errorf("host: restart %s with stale state: %w", inst.enclave.Label(), err)
	}
	return nil
}

// AttackFork starts a second enclave instance over the given shard's
// stable storage and routes that shard's traffic on every subsequently
// accepted connection to it, partitioning the shard's client group.
// Existing connections stay on their instances, and the other shards'
// routing is untouched. It returns the fork's instance index.
func (s *Server) AttackFork(shard int) (int, error) {
	idx, err := s.addInstance(shard)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	s.routeOverride[shard] = idx
	s.mu.Unlock()
	return idx, nil
}

// AttackClone implements the cloning attack of Briongos & Soriente's "No
// Forking Way": it duplicates the given shard's enclave from its current
// sealed state — snapshot, delta log and (platform-sealed) key blob are
// copied into a private storage namespace via the CopyStorage staging
// path — and boots the copy as a second live instance on the same
// platform. Subsequently accepted connections have the shard routed to
// the clone (the AttackFork route-override machinery); existing
// connections stay on the primary, partitioning the client group.
//
// Unlike AttackFork, the two instances then run over DISJOINT storage:
// each appends to its own copy of the chain, every per-client Alg. 2
// check passes on both sides, and as long as the client partitions stay
// disjoint no context ever mismatches — the blind spot the chain-
// heartbeat beacon (Config.BeaconInterval) closes by colliding the two
// instances on the platform's monotonic counter, which the storage copy
// cannot duplicate.
//
// The source is quiesced (persistence barrier held, committer flushed)
// while the blobs are staged, so the clone boots from a consistent,
// acknowledged prefix. It returns the clone's instance index.
func (s *Server) AttackClone(shard int) (int, error) {
	if shards := s.Shards(); shard < 0 || shard >= shards {
		return 0, fmt.Errorf("host: shard %d out of range (%d shards)", shard, shards)
	}
	src := s.instanceAt(shard)
	if src == nil {
		return 0, fmt.Errorf("host: no enclave instance for shard %d", shard)
	}
	s.mu.Lock()
	gen := s.gen
	s.cloneSeq++
	cloneStore := stablestore.NewNamespaced(s.cfg.Store,
		fmt.Sprintf("%s/clone%d", genShardPrefix(gen, shard), s.cloneSeq))
	label := fmt.Sprintf("%s/clone%d", genShardPrefix(gen, shard), s.cloneSeq)
	s.mu.Unlock()

	// Stage the sealed state under the source's persistence barrier: no
	// batch can seal or persist between the flush and the copy, so the
	// clone's chain is exactly the acknowledged history.
	if err := func() error {
		src.pm.Lock()
		defer src.pm.Unlock()
		src.cm.flush()
		src.fence.advance()
		keyBlob, err := src.store.Load(core.SlotKeyBlob)
		if err != nil {
			return fmt.Errorf("host: clone attack: source key blob: %w", err)
		}
		if err := cloneStore.Store(core.SlotKeyBlob, keyBlob); err != nil {
			return fmt.Errorf("host: clone attack: store key blob: %w", err)
		}
		// CopyStorage deliberately skips the key blob (a reshard target
		// seals its own); the attacker copies it too — same platform, same sealing
		// key, so the clone recovers unassisted.
		return CopyStorage(src.store, cloneStore)
	}(); err != nil {
		return 0, err
	}

	// Boot and register the clone like a fork instance: no replica set (an
	// attack artifact must not feed the honest chain's mirrors) and its
	// own queue, committer and — when beacons are armed — tick loop,
	// which is what makes the clone collide with the primary.
	enclave := s.cfg.Platform.NewEnclave(s.cfg.Factory, cloneStore)
	enclave.SetLabel(label)
	if err := enclave.Start(); err != nil {
		return 0, fmt.Errorf("host: start clone %s: %w", label, err)
	}
	inst := s.newInstance(enclave, cloneStore, shard, nil)
	s.mu.Lock()
	s.instances = append(s.instances, inst)
	idx := len(s.instances) - 1
	s.routeOverride[shard] = idx
	s.mu.Unlock()
	s.startInstance(inst)
	if s.cfg.SnapshotReads {
		_, _ = s.instanceBarrierECall(inst, core.EncodeEnableReadsCall())
	}
	return idx, nil
}

// ClearRouteOverrides drops every per-shard route override, restoring
// honest routing (each shard to its primary) for subsequently accepted
// connections. Attack arms compose through it: fork-then-clone or
// clone-then-restart scenarios reset routing between phases instead of
// leaking one phase's override into the next. Fork and clone instances
// keep running — only routing changes.
func (s *Server) ClearRouteOverrides() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for shard := range s.routeOverride {
		delete(s.routeOverride, shard)
	}
}

// RouteNewConnsTo directs the shard served by instance idx back to that
// instance for subsequently accepted connections. Routing a shard to its
// primary (idx < Shards()) restores honest behaviour for new connections.
func (s *Server) RouteNewConnsTo(idx int) {
	inst := s.instanceAt(idx)
	if inst == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx == inst.shard {
		delete(s.routeOverride, inst.shard)
		return
	}
	s.routeOverride[inst.shard] = idx
}

// AttackReplay re-submits a previously captured invoke to the given
// shard's primary enclave, bypassing any client. It returns the enclave's
// error, which — per the protocol — should be a halt.
func (s *Server) AttackReplay(shard int, invoke []byte) error {
	if shards := s.Shards(); shard < 0 || shard >= shards {
		return fmt.Errorf("host: shard %d out of range (%d shards)", shard, shards)
	}
	_, err := s.Enclave(shard).Call(core.EncodeBatchCall([][]byte{invoke}))
	return err
}
