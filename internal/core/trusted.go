package core

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync/atomic"

	"lcm/internal/aead"
	"lcm/internal/hashchain"
	"lcm/internal/securechannel"
	"lcm/internal/service"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/wire"
)

// ProgramIdentity is the identity string measured into LCM enclaves. All
// LCM enclaves for the same service share a measurement, which is what
// lets a client (or a reshard lead) recognize a genuine LCM target.
func ProgramIdentity(serviceName string) string {
	return "lcm/trusted/v1/" + serviceName
}

// Trusted implements Alg. 2 — the LCM protocol for the trusted execution
// context T — as a tee.Program. A fresh instance is created for every
// enclave epoch; persistent state crosses epochs only through the two
// sealed blobs on the host's (untrusted) stable storage.
type Trusted struct {
	serviceName  string
	newService   service.Factory
	attestation  *tee.AttestationService // verification root for reshard targets and peers
	compactRatio float64
	cutRecords   int // tests: cut after this many records, whatever their size

	evictAfterEpochs int // see Group.expiredMembers

	// Volatile state, rebuilt by init from the sealed blobs.
	svc        service.Service
	deltaSvc   service.DeltaService   // non-nil iff svc supports deltas
	snapReader service.SnapshotReader // non-nil iff svc supports snapshot reads
	t          uint64                 // sequence number of the last executed operation
	h          hashchain.Value        // hash-chain value after it
	g          *Group                 // the client group (protocol state V)
	adminSeq   uint64
	ks         aead.Key // sealing key (from the TEE, each epoch)
	kp         aead.Key // protocol-state encryption key
	kc         aead.Key // communication key
	channel    *securechannel.Responder
	footprint  int64 // last footprint reported to the EPC model

	// Reshard state (see reshard.go): the generation this context
	// belongs to (persisted in the state blob), the volatile mid-reshard
	// freeze state, and the resharded-away terminal flag.
	gen       uint64
	reshNonce []byte // outstanding reshard challenge, if any
	resh      *reshardState
	resharded bool

	// Delta-chain state (see state.go): the chain head and the group fields
	// a fold ends with there, the records and sealed bytes since the last
	// cut or blob, the segment records go to, and the segment and Head of
	// the last blob sealed or recovered from.
	chainPrev    [32]byte
	chainEpoch   uint64
	chainQFloor  uint64
	chainLen     int
	chainBytes   int
	seg, baseSeg uint64
	baseHead     [32]byte
	pending      atomic.Pointer[checkpoint] // frozen by the last cut, until sealed
	snapBytes    atomic.Int64               // size of the last sealed snapshot
	compactions  uint64
	lastCompactT uint64
	ad           recordAD // a record's associated data is built here

	// Heartbeat-beacon state (clone detection — see handleBeacon): the
	// count of beacon records this context has committed, the platform
	// counter tick the latest one reserved, and whether that reservation
	// still awaits its durability confirm.
	beaconSeq  uint64
	beaconTick uint64
	beaconOpen bool

	// Concurrent snapshot-read state (see read.go): whether the host has
	// armed the read path for this instance, the highest sequence number
	// the host has confirmed durable, the q floor sealed with it and the
	// floors of the batches executed past it, and the projection of the
	// protocol state shared with concurrent HandleRead calls. rs is the
	// ONLY field readers touch; everything else stays serialized.
	readsArmed bool
	durableT   uint64
	durableQ   uint64
	batchQ     []seqQ
	rs         readState
}

var (
	_ tee.ReadProgram       = (*Trusted)(nil)
	_ tee.BackgroundProgram = (*Trusted)(nil)
)

var _ tee.Program = (*Trusted)(nil)

// Checkpoint policy constants. The enclave cuts a checkpoint (see cut)
// when the sealed delta bytes since the last one exceed
// DefaultCompactRatio times the observed size of the last full snapshot —
// i.e. when replaying the chain at recovery would cost a configurable
// multiple of re-sealing. The record-count floor keeps a tiny service
// from cutting on every other batch, and the cap bounds the number of
// records recovery must authenticate regardless of their size.
const (
	DefaultCompactRatio = 4.0
	CompactMinRecords   = 16
	CompactMaxRecords   = 4096
)

// TrustedConfig assembles a Trusted program factory.
type TrustedConfig struct {
	// ServiceName names the functionality F; it becomes part of the
	// enclave measurement.
	ServiceName string
	// NewService creates an empty service instance (per epoch).
	NewService service.Factory
	// Attestation is the quote-verification root compiled into the
	// program, used when this enclave leads a reshard or a migration and
	// attests its targets and peers. May be nil if neither is used.
	Attestation *tee.AttestationService
	// CompactRatio tunes the checkpoint policy: cut once the chain's
	// sealed bytes since the last checkpoint exceed this multiple of the
	// last full snapshot's size. 0 means DefaultCompactRatio.
	CompactRatio float64
	// EvictAfterEpochs evicts clients with no liveness signal (invoke,
	// heartbeat or join) for this many membership epochs, batched at the
	// epoch seal; 0 disables heartbeat eviction.
	EvictAfterEpochs int

	cutRecords int // tests: cut after this many records, whatever their size
}

// NewTrustedFactory returns a tee.ProgramFactory for the LCM protocol over
// the configured service.
func NewTrustedFactory(cfg TrustedConfig) tee.ProgramFactory {
	compactRatio := cfg.CompactRatio
	if compactRatio <= 0 {
		compactRatio = DefaultCompactRatio
	}
	return func() tee.Program {
		return &Trusted{
			serviceName:      cfg.ServiceName,
			newService:       cfg.NewService,
			attestation:      cfg.Attestation,
			cutRecords:       cfg.cutRecords,
			compactRatio:     compactRatio,
			evictAfterEpochs: cfg.EvictAfterEpochs,
		}
	}
}

// freshGroup builds an empty Group carrying this context's eviction
// configuration.
func (p *Trusted) freshGroup(clients []uint32) *Group {
	g := newGroup(clients)
	g.evictAfter = p.evictAfterEpochs
	return g
}

// Identity implements tee.Program.
func (p *Trusted) Identity() string { return ProgramIdentity(p.serviceName) }

// Init implements tee.Program: Alg. 2's init. It obtains the sealing key,
// loads the sealed blobs from the (untrusted) host, and either resumes
// from the recovered state or awaits bootstrapping.
func (p *Trusted) Init(env tee.Env) error {
	p.ks = env.SealingKey()
	p.useService(p.newService())
	p.g = p.freshGroup(nil)

	// Each epoch gets a fresh secure-channel key pair; its public key is
	// published through attestation quotes.
	ch, err := securechannel.NewResponder()
	if err != nil {
		return fmt.Errorf("lcm: init channel: %w", err)
	}
	p.channel = ch

	blobkey, err := env.Host().Load(SlotKeyBlob)
	if errors.Is(err, stablestore.ErrNotFound) {
		// First start: await provisioning (Sec. 4.3).
		return nil
	}
	if err != nil {
		return fmt.Errorf("lcm: load key blob: %w", err)
	}
	kpRaw, err := aead.Open(p.ks, blobkey, []byte(adKeyBlob))
	if err != nil {
		// A key blob we cannot open is expected in exactly one benign
		// scenario: this enclave runs on a different platform than the
		// one that sealed it (storage shared with or copied from another
		// server). Await provisioning or a reshard import; serving
		// requests is impossible without kP, so this is safe.
		return nil
	}
	kp, err := aead.KeyFromBytes(kpRaw)
	if err != nil {
		return tee.Halt("key blob malformed", err)
	}
	// kP exists, so a state blob that is missing or does not open is the
	// host losing or withholding our history: a violation, not a restart
	// from empty.
	return p.openChain(env, kp, ownSlot, func(reason string, err error) error { return tee.Halt(reason, err) })
}

// ownSlot names this context's own persistence objects.
func ownSlot(slot string) string { return slot }

// openChain loads the state blob and the log segments after it from the
// slots slot names, opens them under kp, installs the blob and folds the
// chain: the one chain open behind Init, admin recover and reshard
// staging. A blob that is missing or does not open fails with refuse's
// verdict on the reason; install and the fold halt on a broken chain.
func (p *Trusted) openChain(env tee.Env, kp aead.Key, slot func(string) string, refuse func(reason string, err error) error) error {
	load := func() ([]byte, error) { return env.Host().Load(slot(SlotStateBlob)) }
	blob, err := load()
	if errors.Is(err, stablestore.ErrNotFound) {
		return refuse("state blob missing", err)
	}
	if err != nil {
		return fmt.Errorf("lcm: load state blob: %w", err)
	}
	state, seg, err := openStateBlob(kp, blob, load)
	switch {
	case errors.Is(err, ErrStateVersion):
		return refuse("state blob version unknown", err)
	case errors.Is(err, aead.ErrAuth):
		return refuse("state blob failed authentication", err)
	case err != nil:
		return refuse("state blob malformed", err)
	}
	if err := p.install(env, kp, state); err != nil {
		return err
	}
	return p.foldDeltaLog(env, state, seg, len(blob), func(seg uint64) string { return slot(SegmentSlot(seg)) })
}

// useService adopts svc and the extensions of it the context uses.
func (p *Trusted) useService(svc service.Service) {
	p.svc = svc
	p.deltaSvc, _ = svc.(service.DeltaService)
	p.snapReader, _ = svc.(service.SnapshotReader)
}

// foldDeltaLog replays the chain after the freshly installed blob: the
// blob's segment and every later one holding records (slot names them),
// authenticating each record and its link. A broken link halts; a short
// suffix is a rollback, which clients detect (see state.go).
func (p *Trusted) foldDeltaLog(env tee.Env, base *trustedState, seg uint64, blobBytes int, slot func(uint64) string) error {
	p.chainPrev, p.baseHead = base.Head, base.Head
	p.seg, p.baseSeg = seg, seg
	p.chainLen, p.chainBytes = 0, 0
	p.snapBytes.Store(int64(blobBytes))
	for ; ; seg++ {
		records, err := env.Host().LoadLog(slot(seg))
		if err != nil {
			return fmt.Errorf("lcm: load log segment %d: %w", seg, err)
		}
		if len(records) == 0 {
			break
		}
		if p.deltaSvc == nil {
			return tee.Halt("delta log present but service cannot apply deltas", nil)
		}
		for i, sealed := range records {
			// LoadLog's records are ours to open in place.
			if refused, err := p.foldRecord(sealed, aead.OpenInPlace); refused != "" {
				if errors.Is(err, aead.ErrAuth) && p.oldRecord(env, slot(seg), i) {
					refused, err = "delta record version unknown", fmt.Errorf("%w: sealed before version %d", ErrRecordVersion, recordVersion)
				}
				return tee.Halt(refused, err)
			} else if err != nil {
				return err
			}
		}
		p.seg = seg
	}
	p.allDurable() // the folded chain came from stable storage
	p.chargeFootprint(env)
	return nil
}

// foldRecord opens a sealed record with open at the head's chain position
// and folds it. One that does not open there or decode is refused, with
// the reason recovery halts on; one that opens folds under applyRecord's.
func (p *Trusted) foldRecord(sealed []byte, open func(k aead.Key, ct, ad []byte) ([]byte, error)) (refused string, err error) {
	sum, size := blobHash(sealed), len(sealed) // before an in-place open
	plain, err := open(p.kp, sealed, p.ad.at(p.chainPrev, p.t, p.adminSeq))
	if err != nil {
		return "delta record failed authentication", err
	}
	rec, err := decodeDeltaRecord(plain)
	switch {
	case errors.Is(err, ErrRecordVersion):
		return "delta record version unknown", err
	case err != nil:
		return "delta record malformed", err
	}
	return "", p.applyRecord(rec, sum, size)
}

// oldRecord reports whether record i of slot opens under the bare label
// of versions 1 and 2, in a reload: a failed in-place open leaves no copy.
func (p *Trusted) oldRecord(env tee.Env, slot string, i int) bool {
	records, err := env.Host().LoadLog(slot)
	if err == nil && i < len(records) {
		_, err = aead.OpenInPlace(p.kp, records[i], []byte(adDeltaLog))
	}
	return err == nil && i < len(records)
}

// applyRecord folds a record that opened at the head, whose ciphertext
// hashes to sum, supplying each absent optional field (state.go's rules).
func (p *Trusted) applyRecord(rec *deltaRecord, sum [32]byte, size int) error {
	if rec.ToT < p.t {
		return tee.Halt("delta record sequence runs backwards", nil)
	}
	t, h := p.t, p.h // moved only by an entry naming ToT
	for id, e := range rec.Entries {
		if !rec.Anchors {
			prev, ok := p.g.v[id]
			if !ok {
				return tee.Halt("delta record entry has no anchor in V", nil)
			}
			e.TA, e.HA = prev.T, prev.H
		}
		if read, ok := rec.Reads[id]; ok {
			if err := p.rerun(id, e, read); err != nil {
				return err
			}
		}
		if e.T == rec.ToT {
			t, h = e.T, e.H
		}
		p.g.v[id] = e
	}
	p.g.applyTombstones(rec.Removed)
	if rec.GroupEpoch > p.g.epoch {
		p.g.epoch = rec.GroupEpoch
		p.g.graceEpoch = rec.GroupEpoch
	}
	if rec.QFloor > p.g.qFloor {
		p.g.qFloor = rec.QFloor
	}
	if err := p.deltaSvc.ApplyDelta(rec.Delta); err != nil {
		return tee.Halt("service delta malformed", err)
	}
	if t != rec.ToT {
		return tee.Halt("delta record does not reach its declared sequence", nil)
	}
	p.t, p.h = t, h
	if rec.BeaconSeq > 0 {
		// A beacon record: resume the counter-reservation protocol at
		// the tick it reserved. beaconOpen stays false — whether the
		// confirm increment ran is what the next reserve's R ∈
		// {tick, tick−1} tolerance absorbs.
		p.beaconSeq, p.beaconTick = rec.BeaconSeq, rec.BeaconTick
	}
	p.chainPrev = sum
	p.chainEpoch, p.chainQFloor = p.g.epoch, p.g.qFloor
	p.chainLen++
	p.chainBytes += size
	return nil
}

// rerun rebuilds the cached reply of an entry that kept its read's op: it
// runs the op on the state before the record's delta, the state it ran on
// (state.go), and derives the batch's first op's (T, H) from the head.
// Writes are never re-run.
func (p *Trusted) rerun(id uint32, e *ventry, read readOp) error {
	if p.snapReader == nil || !p.snapReader.IsReadOnly(read.op) {
		return tee.Halt("delta record re-runs an op that is not a read", nil)
	}
	result, err := p.svc.Apply(read.op)
	if err != nil {
		return tee.Halt("delta record read rejected by service", err)
	}
	if read.form == entryFirstRead {
		e.T = p.t + 1
		e.H = hashchain.Extend(p.h, read.op, e.T, id)
	}
	e.Reply = append(e.Reply[:cachedReplyMin:cachedReplyMin], result...)
	return nil
}

// install adopts a recovered or staged state. Note that a stale but
// authentic state is accepted here — that is the rollback attack, which is
// detected at the first client invocation whose context is ahead of V.
func (p *Trusted) install(env tee.Env, kp aead.Key, state *trustedState) error {
	kc, err := aead.KeyFromBytes(state.KC)
	if err != nil {
		return tee.Halt("state kC malformed", err)
	}
	if err := p.svc.Restore(state.Snapshot); err != nil {
		return tee.Halt("service snapshot malformed", err)
	}
	p.kp = kp
	p.kc = kc
	p.g = p.freshGroup(nil)
	p.g.adoptState(state)
	p.adminSeq = state.AdminSeq
	p.gen = state.Gen
	p.beaconSeq = state.BeaconSeq
	p.beaconTick = state.BeaconTick
	p.chainEpoch, p.chainQFloor = state.GroupEpoch, state.QFloor
	// Alg. 2's (·, t, h) ← V[argmax(V)], sealed as is: a leave or an
	// eviction may have removed the entry that held the head.
	p.t, p.h = state.SeqT, state.SeqH
	p.allDurable() // the installed state came from stable storage
	p.chargeFootprint(env)
	return nil
}

// chargeFootprint synchronizes the service's memory estimate with the
// enclave's EPC accounting.
func (p *Trusted) chargeFootprint(env tee.Env) {
	now := p.svc.Footprint()
	env.ChargeMemory(now - p.footprint)
	p.footprint = now
}

func (p *Trusted) provisioned() bool { return !p.kp.IsZero() }

// Call implements tee.Program: the ecall dispatcher. After any
// successful state-transitioning call it republishes the reader-visible
// projection (see read.go); the batch path instead publishes through the
// durability advances, so readers only ever see durable state.
func (p *Trusted) Call(env tee.Env, payload []byte) ([]byte, error) {
	resp, err := p.dispatch(env, payload)
	if err == nil && len(payload) > 0 {
		switch payload[0] {
		case callBatch, callStatus, callAttest, callEnableReads, callAdvanceDurable,
			callBeacon, callBeaconConfirm, callGroupInfo, callCheckpoint:
			// Reads-neutral (status, attest, beacons — no client-visible
			// state changes), self-publishing (enable, advance), or
			// published only once durable (batch).
		default:
			p.syncReadState()
		}
	}
	return resp, err
}

func (p *Trusted) dispatch(env tee.Env, payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, errors.New("lcm: empty call payload")
	}
	r := wire.NewReader(payload[1:])
	switch payload[0] {
	case callBatch:
		invokes, err := decodeBatchCall(r)
		if err != nil {
			return nil, err
		}
		return p.handleBatch(env, invokes)
	case callAttest:
		nonce := r.Var()
		if err := r.Done(); err != nil {
			return nil, err
		}
		quote := env.Quote(nonce, p.channel.PublicKey())
		return encodeQuote(&quote), nil
	case callProvision:
		senderPub := r.Var()
		ct := r.Var()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleProvision(env, senderPub, ct)
	case callAdmin:
		ct := r.Var()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleAdmin(env, ct)
	case callStatus:
		if err := r.Done(); err != nil {
			return nil, err
		}
		return encodeStatus(&Status{
			Provisioned:    p.provisioned(),
			Retired:        p.resharded,
			Epoch:          env.Epoch(),
			Seq:            p.t,
			Stable:         p.g.stable(),
			AdminSeq:       p.adminSeq,
			NumClients:     len(p.g.v),
			Gen:            p.gen,
			Resharding:     p.resh != nil,
			DeltaActive:    p.deltaSvc != nil,
			ChainLen:       p.chainLen,
			ChainBytes:     p.chainBytes,
			SnapshotBytes:  int(p.snapBytes.Load()),
			Compactions:    p.compactions,
			LastCompactSeq: p.lastCompactT,
			BeaconSeq:      p.beaconSeq,
			GroupEpoch:     p.g.epoch,
			ActiveClients:  uint32(p.g.activeCount()),
			Evictions:      p.g.evictions,
		}), nil
	case callReshardChallenge:
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleReshardChallenge(env)
	case callReshardBegin:
		newShards := int(r.U32())
		n := r.U32()
		targetQuotes := make([][]byte, 0, n)
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			targetQuotes = append(targetQuotes, r.Var())
		}
		n = r.U32()
		var peerQuotes [][]byte
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			peerQuotes = append(peerQuotes, r.Var())
		}
		adminChannel := r.Var()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleReshardBegin(env, newShards, targetQuotes, peerQuotes, adminChannel)
	case callReshardPrepare:
		senderPub := r.Var()
		ct := r.Var()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleReshardPrepare(env, senderPub, ct)
	case callReshardExport:
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleReshardExport(env)
	case callReshardImport:
		senderPub := r.Var()
		leadCT := r.Var()
		n := r.U32()
		pieces := make([][]byte, 0, n)
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			pieces = append(pieces, r.Var())
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleReshardImport(env, senderPub, leadCT, pieces)
	case callReshardAbort:
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleReshardAbort(env)
	case callChainSync:
		n := r.U32()
		records := make([][]byte, 0, n)
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			records = append(records, r.Var())
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleChainSync(env, records)
	case callRecover:
		senderPub := r.Var()
		ct := r.Var()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleRecover(env, senderPub, ct)
	case callEnableReads:
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleEnableReads()
	case callAdvanceDurable:
		seq := r.U64()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleAdvanceDurable(seq)
	case callBeacon:
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleBeacon(env)
	case callBeaconConfirm:
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleBeaconConfirm(env)
	case callEpochSeal:
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleEpochSeal(env)
	case callChurn:
		n := r.U32()
		msgs := make([][]byte, 0, n)
		for i := uint32(0); i < n && r.Err() == nil; i++ {
			msgs = append(msgs, r.Var())
		}
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleChurn(env, msgs)
	case callGroupInfo:
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.handleGroupInfo()
	case callCheckpoint:
		seg := r.U64()
		if err := r.Done(); err != nil {
			return nil, err
		}
		return p.sealCheckpoint(seg)
	default:
		return nil, fmt.Errorf("lcm: unknown call kind %d", payload[0])
	}
}

// handleBatch processes a batch of INVOKE messages sequentially (the main
// loop of Alg. 2) and seals the persistence record once per batch: a
// delta record covering exactly this batch's changes, or a full state
// blob for a service without deltas.
func (p *Trusted) handleBatch(env tee.Env, invokes [][]byte) ([]byte, error) {
	if !p.provisioned() {
		return nil, ErrNotProvisioned
	}
	if p.resharded {
		return nil, ErrReshardedAway
	}
	if p.resh != nil {
		// Frozen between prepare and export: refusing (rather than
		// halting) lets the affected clients keep their ops pending and
		// resolve them against the handoff after the move.
		return nil, ErrResharding
	}
	rec := deltaRecord{FromT: p.t}
	replies := make([][]byte, 0, len(invokes))
	if p.deltaSvc != nil {
		rec.Entries, rec.Reads = make(vmap, len(invokes)), make(map[uint32]readOp)
	}
	wrote := false // a write ran earlier in the batch
	for _, ct := range invokes {
		t := p.t
		reply, id, op, err := p.handleInvoke(ct)
		if err != nil {
			return nil, err
		}
		replies = append(replies, reply)
		if rec.Entries != nil {
			// The fold derives (TA, HA) of an op that ran, not of a retry
			// or of a client's second op.
			ran := p.t != t
			rec.Anchors = rec.Anchors || !ran || rec.Entries[id] != nil
			rec.Entries[id] = p.g.v[id]
			// A read before any write ran on the state the fold holds
			// before the batch's delta: the fold re-runs its op.
			read := ran && !wrote && p.snapReader != nil && p.snapReader.IsReadOnly(op)
			wrote = wrote || ran && !read
			delete(rec.Reads, id)
			if read {
				form := entryRead
				if p.t == rec.FromT+1 {
					form = entryFirstRead
				}
				rec.Reads[id] = readOp{op: op, form: form}
			}
		}
	}
	p.chargeFootprint(env)
	if p.readsArmed && p.snapReader != nil {
		// Seal this batch's undo generation under its final sequence
		// number; snapshot readers keep resolving through it until the
		// host confirms the batch durable (callAdvanceDurable), and so does
		// the q floor its record seals.
		p.snapReader.EndBatch(p.t)
		p.batchQ = append(p.batchQ, seqQ{t: p.t, q: p.g.qFloor})
	}
	res := BatchResult{Replies: replies, Seq: p.t}
	if err := p.sealResult(&res, &rec); err != nil {
		return nil, err
	}
	return encodeBatchResult(&res), nil
}

// sealResult seals a result's persistence record: a full state blob for a
// service without deltas, else the delta record rec (the caller sets FromT and
// what it touched), then cuts if the chain is due.
func (p *Trusted) sealResult(res *BatchResult, rec *deltaRecord) error {
	if p.deltaSvc == nil {
		blob, err := p.sealState()
		res.StateBlob, res.Seg = blob, p.seg
		return err
	}
	sealed, err := p.sealDeltaRecord(rec)
	if err != nil {
		return err
	}
	res.DeltaRecord, res.Seg = sealed, p.seg
	if res.Cut = p.shouldCut(); res.Cut {
		p.cut()
	}
	return nil
}

// shouldCut reports whether the chain's replay cost since the last
// checkpoint (its sealed bytes) exceeds compactRatio times the snapshot
// size, within CompactMinRecords and CompactMaxRecords records.
func (p *Trusted) shouldCut() bool {
	if p.cutRecords > 0 {
		return p.chainLen >= p.cutRecords
	}
	if p.chainLen < CompactMinRecords {
		return false
	}
	if p.chainLen >= CompactMaxRecords {
		return true
	}
	return float64(p.chainBytes) >= p.compactRatio*float64(max(p.snapBytes.Load(), 1))
}

// checkpoint is what a cut freezes (state at S with Head h_S, and more).
type checkpoint struct {
	state trustedState
	seg   uint64
	kp    aead.Key
	view  func() ([]byte, error)
}

// cut freezes a checkpoint at S after the record reaching S, which closes
// its segment: O(members) plus the service's Freeze. The O(state) seal
// runs later, off the request path; a newer cut or blob replaces it.
func (p *Trusted) cut() {
	var view func() ([]byte, error)
	if f, ok := p.svc.(service.Freezer); ok {
		view = f.Freeze()
	} else {
		snapshot, err := p.svc.Snapshot()
		view = func() ([]byte, error) { return snapshot, err }
	}
	state := p.stateOf(nil)
	state.V = state.V.clone() // later batches mutate the entries
	p.seg++
	p.pending.Store(&checkpoint{state: state, seg: p.seg, kp: p.kp, view: view})
	p.chainLen, p.chainBytes = 0, 0
	p.compactions++
	p.lastCompactT = p.t
}

// HandleBackground implements tee.BackgroundProgram: checkpoint seals.
func (p *Trusted) HandleBackground(payload []byte) ([]byte, error) {
	if len(payload) != 9 || payload[0] != callCheckpoint {
		return nil, errors.New("lcm: unknown background call")
	}
	return p.sealCheckpoint(binary.BigEndian.Uint64(payload[1:]))
}

// sealCheckpoint seals the pending checkpoint starting segment seg, beside
// later batches: it touches only atomics. Records chain from Head, so the
// blob is not hashed.
func (p *Trusted) sealCheckpoint(seg uint64) ([]byte, error) {
	ck := p.pending.Load()
	if ck == nil || ck.seg != seg || !p.pending.CompareAndSwap(ck, nil) {
		return nil, ErrNoCheckpoint
	}
	snapshot, err := ck.view()
	if err != nil {
		return nil, fmt.Errorf("lcm: checkpoint snapshot: %w", err)
	}
	ck.state.Snapshot = snapshot
	blob, err := sealStateBlob(ck.kp, &ck.state, ck.seg)
	if err != nil {
		return nil, fmt.Errorf("lcm: seal checkpoint: %w", err)
	}
	p.snapBytes.Store(int64(len(blob)))
	return blob, nil
}

// sealDeltaRecord completes rec, seals it and advances the chain; the
// group epoch and q floor go in where they moved past the chain's. A
// beacon record is an empty batch's record that also carries the beacon
// fields: it advances the chain exactly like a batch record, so a clone
// committing beacons of its own forks the chain like any other divergent
// writer.
func (p *Trusted) sealDeltaRecord(rec *deltaRecord) ([]byte, error) {
	delta, err := p.deltaSvc.Delta()
	if err != nil {
		return nil, fmt.Errorf("lcm: service delta: %w", err)
	}
	rec.ToT, rec.Delta = p.t, delta
	if p.g.epoch != p.chainEpoch {
		rec.GroupEpoch = p.g.epoch
	}
	if p.g.qFloor != p.chainQFloor {
		rec.QFloor = p.g.qFloor
	}
	// Encoded behind nonce headroom, with room for the tag, and sealed in
	// place (aead.SealInPlace): written once, no buffer of its own.
	w := wire.NewWriter(aead.Overhead + rec.encodedSize())
	w.Pad(aead.NonceSize)
	rec.encodeTo(w)
	sealed, err := aead.SealInPlace(p.kp, w.Bytes(), p.ad.at(p.chainPrev, rec.FromT, p.adminSeq))
	if err != nil {
		return nil, fmt.Errorf("lcm: seal delta record: %w", err)
	}
	p.chainPrev = blobHash(sealed)
	p.chainEpoch, p.chainQFloor = p.g.epoch, p.g.qFloor
	p.chainLen++
	p.chainBytes += len(sealed)
	return sealed, nil
}

// sealBeaconTick makes a beacon tick rebased on this platform's counter
// durable once the chain has beaconed: in a sealed beacon record, or in a
// fresh state blob for a service without deltas, where the blob carries
// the tick.
func (p *Trusted) sealBeaconTick(env tee.Env) error {
	if p.beaconSeq == 0 {
		return nil
	}
	if p.deltaSvc == nil {
		blob, err := p.sealState()
		if err == nil {
			err = env.Host().Store(SlotStateBlob, blob)
		}
		return err
	}
	sealed, err := p.sealDeltaRecord(&deltaRecord{FromT: p.t, BeaconSeq: p.beaconSeq, BeaconTick: p.beaconTick})
	if err == nil {
		err = env.Host().Append(SegmentSlot(p.seg), sealed)
	}
	return err
}

// counterID derives the platform-counter identity for this trusted
// context from kP. Every instance holding the same protocol state — the
// primary, a restarted epoch, a cloned enclave booted from copied sealed
// blobs — maps to the same counter, which is exactly what makes the
// counter the collision medium two live writers cannot avoid sharing.
// Distinct deployments and reshard generations use fresh keys and
// therefore disjoint counters.
func (p *Trusted) counterID() string {
	sum := sha256.Sum256(append([]byte("lcm/beacon/counter/v1"), p.kp.Bytes()...))
	return hex.EncodeToString(sum[:])
}

// handleBeacon commits one heartbeat beacon record — the clone-detection
// protocol. The sealed chain alone cannot expose a clone whose clients are
// disjoint from ours (every per-client Alg. 2 check passes on both
// copies), so the beacon couples the chain to the one resource copying
// sealed storage cannot duplicate: the platform's monotonic counter. The
// protocol is reserve/confirm:
//
//	reserve  R ← counter.Read(); require R ∈ {tick, tick−1}; tick ← R+1
//	seal     append a beacon record (BeaconSeq, BeaconTick = tick)
//	confirm  once the record is durable the host sends callBeaconConfirm
//	         and counter.Increment() must land exactly on tick
//
// A second live instance beaconing on the same counter makes our next
// read observe a foreign increment (R > tick), or our confirm land past
// the reserved value — either way the context halts with ErrCloneDetected
// within a bounded number of beacon intervals. R = tick−1 is tolerated as
// the benign residue of a crash after the record became durable but
// before the confirm increment ran; R < tick−1 means the chain was rolled
// back behind increments it had already confirmed, which is equally fatal.
func (p *Trusted) handleBeacon(env tee.Env) ([]byte, error) {
	if !p.provisioned() {
		return nil, ErrNotProvisioned
	}
	if p.resharded {
		return nil, ErrReshardedAway
	}
	if p.resh != nil {
		return nil, ErrResharding
	}
	read := env.CounterRead(p.counterID())
	if read != p.beaconTick && !(p.beaconTick > 0 && read == p.beaconTick-1) {
		return nil, tee.Halt("beacon counter diverged from the sealed chain", ErrCloneDetected)
	}
	p.beaconSeq++
	p.beaconTick = read + 1
	p.beaconOpen = true
	// Without deltas the beacon fields travel in the state blob.
	res := BatchResult{Seq: p.t, Beacon: true}
	if err := p.sealResult(&res, &deltaRecord{FromT: p.t, BeaconSeq: p.beaconSeq, BeaconTick: p.beaconTick}); err != nil {
		return nil, err
	}
	return encodeBatchResult(&res), nil
}

// handleBeaconConfirm claims the counter tick the last beacon reserved,
// strictly after the host reports the beacon record durable (keeping the
// crash window benign: a crash between seal and confirm leaves the
// counter one behind, which the next reserve tolerates). The increment
// must land exactly on the reserved tick; any other value means a
// concurrent writer slipped in between reserve and confirm.
func (p *Trusted) handleBeaconConfirm(env tee.Env) ([]byte, error) {
	if !p.provisioned() {
		return nil, ErrNotProvisioned
	}
	if !p.beaconOpen {
		return nil, errors.New("lcm: no beacon awaiting confirmation")
	}
	p.beaconOpen = false
	if obs := env.CounterIncrement(p.counterID()); obs != p.beaconTick {
		return nil, tee.Halt("beacon confirm raced a concurrent writer", ErrCloneDetected)
	}
	return []byte("ok"), nil
}

// handleInvoke is the per-operation body of Alg. 2. It returns the reply
// ciphertext, and the invoking client's identifier and op (for
// delta-record V tracking).
func (p *Trusted) handleInvoke(ciphertext []byte) ([]byte, uint32, []byte, error) {
	plain, err := aead.Open(p.kc, ciphertext, []byte(adInvoke))
	if err != nil {
		// Signal a violation if the message does not have valid
		// authentication.
		return nil, 0, nil, tee.Halt("invoke failed authentication", err)
	}
	inv, err := wire.DecodeInvoke(plain)
	if err != nil {
		return nil, 0, nil, tee.Halt("invoke malformed", err)
	}
	ent, ok := p.g.v[inv.ClientID]
	if !ok {
		if p.g.isEvicted(inv.ClientID) {
			// An evicted (or departed) client that somehow still holds a
			// working kC is a configuration remnant, not an attack: refuse
			// the operation without halting the context.
			return nil, 0, nil, fmt.Errorf("%w: client %d", ErrClientEvicted, inv.ClientID)
		}
		return nil, 0, nil, tee.Halt("invoke from unknown client", ErrUnknownClient)
	}

	// assert V[i] = (∗, tc, hc): the client's context must match the last
	// reply T returned to it.
	if ent.T != inv.TC || ent.H != inv.HC {
		// Sec. 4.6.1: a retry whose context matches the *acknowledged*
		// entry means T processed the operation but the reply was lost;
		// resend the cached reply instead of treating it as an attack.
		if inv.Retry && ent.TA == inv.TC && ent.HA == inv.HC && ent.Reply != nil {
			ct, err := ent.sealedReply(p.kc)
			if err != nil {
				return nil, 0, nil, tee.Halt("cached reply does not reconstruct", err)
			}
			return ct, inv.ClientID, inv.Op, nil
		}
		return nil, 0, nil, tee.Halt("client context mismatch: rollback or forking attack", nil)
	}

	// t ← t + 1; (r, s) ← execF(s, o); h ← hash(h ‖ o ‖ t ‖ i).
	p.t++
	result, err := p.svc.Apply(inv.Op)
	if err != nil {
		// Clients are correct and mutually trusting (Sec. 2.1); an
		// authenticated-but-malformed operation cannot happen in a
		// conforming deployment, so treat it as a violation.
		return nil, 0, nil, tee.Halt("operation rejected by service", err)
	}
	p.h = hashchain.Extend(p.h, inv.Op, p.t, inv.ClientID)

	// V[i] ← (tc, t, h); q ← majority-stable(V) (see Group.stableQ).
	ent.TA, ent.HA = inv.TC, inv.HC
	ent.T, ent.H = p.t, p.h
	p.g.noteActive(inv.ClientID)
	q := p.g.stableQ()

	replyCT, err := ent.sealReply(p.kc, &wire.Reply{T: p.t, H: p.h, Result: result, Q: q, HCPrev: inv.HC, BeaconSeq: p.beaconSeq})
	if err != nil {
		return nil, 0, nil, fmt.Errorf("lcm: seal reply: %w", err)
	}
	return replyCT, inv.ClientID, inv.Op, nil
}

// stateOf assembles the sealed-state plaintext, with Head the chain head.
func (p *Trusted) stateOf(snapshot []byte) trustedState {
	return trustedState{
		AdminSeq:   p.adminSeq,
		Gen:        p.gen,
		KC:         p.kc.Bytes(),
		V:          p.g.v,
		Snapshot:   snapshot,
		BeaconSeq:  p.beaconSeq,
		BeaconTick: p.beaconTick,
		GroupEpoch: p.g.epoch,
		QFloor:     p.g.qFloor,
		Evicted:    p.g.evictedIDs(),
		Evictions:  p.g.evictions,
		SeqT:       p.t,
		SeqH:       p.h,
		Head:       p.chainPrev,
	}
}

// sealState produces the blob ← auth-encrypt((s, V, kC), kP) of Alg. 2
// inline (a full snapshot subsumes any pending deltas; kvs-style services
// clear their dirty set on Snapshot). The chain continues from its Head in
// a new segment, unless the current one is empty, and it supersedes any
// checkpoint not yet sealed.
func (p *Trusted) sealState() ([]byte, error) {
	snapshot, err := p.svc.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("lcm: snapshot service: %w", err)
	}
	if p.chainLen > 0 {
		p.seg++
		p.compactions++
		p.lastCompactT = p.t
	}
	p.pending.Store(nil)
	state := p.stateOf(snapshot)
	blob, err := sealStateBlob(p.kp, &state, p.seg)
	if err != nil {
		return nil, fmt.Errorf("lcm: seal state: %w", err)
	}
	p.chainEpoch, p.chainQFloor = state.GroupEpoch, state.QFloor
	p.chainLen, p.chainBytes = 0, 0
	p.snapBytes.Store(int64(len(blob)))
	return blob, nil
}

// sealKeyBlob produces blobkey ← auth-encrypt(kP, kS).
func (p *Trusted) sealKeyBlob() ([]byte, error) {
	blob, err := aead.Seal(p.ks, p.kp.Bytes(), []byte(adKeyBlob))
	if err != nil {
		return nil, fmt.Errorf("lcm: seal key blob: %w", err)
	}
	return blob, nil
}

// persist stores both sealed blobs through the host. Used on the
// bootstrap, admin and reshard-import paths; the batch path piggybacks the state
// blob on its response instead.
func (p *Trusted) persist(env tee.Env) error {
	keyBlob, err := p.sealKeyBlob()
	if err != nil {
		return err
	}
	stateBlob, err := p.sealState()
	if err != nil {
		return err
	}
	if err := env.Host().Store(SlotKeyBlob, keyBlob); err != nil {
		return fmt.Errorf("lcm: store key blob: %w", err)
	}
	// The blob's segment holds no record of this chain; clear foreign
	// residue (an import onto used storage) before the blob names it. The
	// host's next checkpoint drops the segments below it.
	if err := env.Host().TruncateLog(SegmentSlot(p.seg)); err != nil {
		return fmt.Errorf("lcm: clear log segment: %w", err)
	}
	if err := env.Host().Store(SlotStateBlob, stateBlob); err != nil {
		return fmt.Errorf("lcm: store state blob: %w", err)
	}
	if p.readsArmed && p.snapReader != nil {
		// The synchronous store above made everything durable; release
		// the whole undo overlay to the snapshot readers.
		p.snapReader.EndBatch(p.t)
		p.allDurable()
		p.publishDurable(p.t)
	}
	return nil
}

// handleProvision installs the admin's keys and client group (Sec. 4.3).
func (p *Trusted) handleProvision(env tee.Env, senderPub, ct []byte) ([]byte, error) {
	if p.provisioned() {
		return nil, ErrAlreadyProvisioned
	}
	plain, err := p.channel.Open(senderPub, ct)
	if err != nil {
		return nil, fmt.Errorf("lcm: provision channel: %w", err)
	}
	payload, err := decodeProvisionPayload(plain)
	if err != nil {
		return nil, err
	}
	kp, err := aead.KeyFromBytes(payload.KP)
	if err != nil {
		return nil, fmt.Errorf("lcm: provision kP: %w", err)
	}
	kc, err := aead.KeyFromBytes(payload.KC)
	if err != nil {
		return nil, fmt.Errorf("lcm: provision kC: %w", err)
	}
	if len(payload.Clients) == 0 {
		return nil, errors.New("lcm: provision with empty client group")
	}
	seen := make(map[uint32]bool, len(payload.Clients))
	for _, id := range payload.Clients {
		if seen[id] {
			return nil, fmt.Errorf("lcm: provision with duplicate client %d", id)
		}
		seen[id] = true
	}
	p.kp, p.kc = kp, kc
	p.g = p.freshGroup(payload.Clients)
	p.t, p.h = 0, hashchain.Initial()
	if err := p.persist(env); err != nil {
		return nil, err
	}
	return []byte("ok"), nil
}

// handleAdmin applies a group-membership change (Sec. 4.6.3).
func (p *Trusted) handleAdmin(env tee.Env, ct []byte) ([]byte, error) {
	if !p.provisioned() {
		return nil, ErrNotProvisioned
	}
	if p.resharded {
		return nil, ErrReshardedAway
	}
	if p.resh != nil {
		return nil, ErrResharding
	}
	plain, err := aead.Open(p.kp, ct, []byte(adAdminMsg))
	if err != nil {
		return nil, ErrAdminAuth
	}
	op, err := decodeAdminOp(plain)
	if err != nil {
		return nil, err
	}
	if op.Seq != p.adminSeq+1 {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrAdminReplay, op.Seq, p.adminSeq+1)
	}
	switch op.Kind {
	case adminAddClient:
		p.g.join(op.ClientID) // idempotent, as churn's join
	case adminLeaveClient:
		// Cooperative departure: no key rotation (the leaver holds kC
		// legitimately), tombstoned so a later invoke fails benignly.
		if !p.g.leave(op.ClientID) {
			if p.g.member(op.ClientID) {
				return nil, errors.New("lcm: cannot remove the last client")
			}
			return nil, ErrUnknownClient
		}
	case adminEvictClient:
		// Staged: applied — with the batched kC rotation — at the next
		// epoch seal (Sec. 4.6.3, amortized per epoch).
		if !p.g.stageEvict(op.ClientID) {
			return nil, ErrUnknownClient
		}
	default:
		return nil, fmt.Errorf("lcm: unknown admin op %d", op.Kind)
	}
	p.adminSeq = op.Seq
	if err := p.persist(env); err != nil {
		return nil, err
	}
	return []byte("ok"), nil
}

// randNonce is a package-level helper for admins.
func randNonce() ([]byte, error) {
	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("lcm: nonce: %w", err)
	}
	return nonce, nil
}
