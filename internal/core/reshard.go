package core

// Online resharding
//
// A sharded deployment (internal/host) runs one independent LCM context
// per keyspace shard. Resharding changes the shard count of a *live*
// deployment — growing a saturated 2-shard deployment to 4, or shrinking
// an over-provisioned one — without a trusted third party and without
// stepping outside the protocol's detection envelope: provisioning and
// migration windows are exactly where forked replicas slip in ("No
// Forking Way", Briongos & Soriente 2023), so the move itself must leave
// evidence a client can verify.
//
// The protocol is also Sec. 4.6.2's migration: a migration is a reshard
// whose targets run on another server (host.Server.MigrateTo), so one
// protocol moves a chain to a new enclave, whatever the shard counts. The
// untrusted host coordinates (it restarts enclaves at will anyway); all
// secrets move enclave-to-enclave over attested secure channels, and the
// client-visible outcome is authenticated by the *old* shards' keys:
//
//  1. CHALLENGE — source shard 0 (the "lead") issues a fresh nonce.
//  2. BEGIN (lead) — the host collects one attestation quote per new
//     shard ("targets", fresh unprovisioned enclaves) and per other
//     source shard ("peers"), all over the lead's nonce. The lead
//     verifies every quote against its own measurement, then generates
//     the next generation number g+1, a one-time generation key kR, and
//     a fresh (kP, kC) pair per target. It seals to each peer
//     {g+1, layout, src index, kR} and to each target
//     {g+1, layout, own index, kR, kP_j, kC_j, client group}, and
//     freezes (no more batches).
//  3. PREPARE (peers) — each peer opens its payload, checks g+1 against
//     its own generation, and freezes.
//  4. EXPORT (every source) — each source emits (a) one *piece* per
//     target, sealed under kR: {g+1, src, dst, kP_src, chain head,
//     pending delta}; and (b) one *handoff*, sealed under its own kC: {g+1, layout, src,
//     final (t, h), every client's V entry, and (lead only) the new
//     shards' communication keys}. The bulk service state does NOT
//     travel in the piece: the host copies the source's sealed base
//     blob + delta log into each target's storage namespace
//     (host.CopyStorage — untrusted, verified at import).
//  5. IMPORT (targets) — each target opens its lead payload, then for
//     every source: opens the piece, folds the host-copied chain with
//     kP_src, refuses unless the fold ends exactly at the piece's
//     pinned head (a stale or truncated copy is a rollback attempt),
//     applies the pending delta, splits the reconstructed source state
//     by the *new* shard index (service.Resharder) and keeps its own
//     fragment. The union of the fragments becomes the target's state;
//     it starts a fresh chain (t=0) over a fresh client-context map and
//     persists under its own kP.
//
// Detection across the boundary is the handoff: each client holds, per
// old shard, its own (tc, hc) context. Before adopting the new
// generation it opens every old shard's handoff with that shard's kC
// (which the host does not know) and requires its own V entry to match
// its context — the same check Alg. 2 performs on every INVOKE, executed
// client-side at the boundary. A rollback or fork injected on a source
// shard during the move makes the exported V disagree with at least the
// victims' contexts, so those clients refuse the new generation instead
// of adopting it. Replays of old handoffs fail the generation check
// (clients require exactly their generation + 1), and handoffs from a
// different deployment fail authentication.
//
// The host can still abandon a reshard half-way and restart the frozen
// sources — but that is an ordinary forking attack between the clients
// who adopted the new generation and those who did not, and it is
// detected exactly like any other fork (the partitions can never join:
// they hold different keys and different chains).

import (
	"errors"
	"fmt"

	"lcm/internal/aead"
	"lcm/internal/hashchain"
	"lcm/internal/securechannel"
	"lcm/internal/service"
	"lcm/internal/tee"
	"lcm/internal/wire"
)

// ReshardSrcSlot names the storage slot under which the host stages a
// copy of source shard src's persistence object (state blob or delta
// log) inside a reshard target's namespace. The staging is untrusted —
// the target verifies the folded chain against the piece's pinned head.
func ReshardSrcSlot(src int, slot string) string {
	return fmt.Sprintf("src%d/%s", src, slot)
}

// SealedPayload is one secure-channel message (an initiator's ephemeral
// public key plus the ciphertext), as produced by securechannel.Seal.
type SealedPayload struct {
	SenderPub  []byte
	Ciphertext []byte
}

func (p *SealedPayload) encodeTo(w *wire.Writer) {
	w.Var(p.SenderPub)
	w.Var(p.Ciphertext)
}

func decodeSealedPayload(r *wire.Reader) SealedPayload {
	return SealedPayload{SenderPub: r.Var(), Ciphertext: r.Var()}
}

// EncodeReshardChallengeCall asks the lead source shard for a fresh
// nonce with which the host must obtain every target's and peer's quote.
func EncodeReshardChallengeCall() []byte {
	return []byte{callReshardChallenge}
}

// EncodeReshardBeginCall hands the lead the new shard count and the
// collected quotes (targets in new-shard order, peers in source order
// starting at shard 1). adminChannel, if non-empty, is the admin's
// reshard-channel public key sealed under the current kP (see
// Admin.ReshardChannel); the lead then seals the new generation's keys
// to it so membership changes keep working after the move.
func EncodeReshardBeginCall(newShards int, targetQuotes, peerQuotes [][]byte, adminChannel []byte) []byte {
	size := 13 + len(adminChannel)
	for _, q := range targetQuotes {
		size += 4 + len(q)
	}
	for _, q := range peerQuotes {
		size += 4 + len(q)
	}
	w := wire.NewWriter(size)
	w.U8(callReshardBegin)
	w.U32(uint32(newShards))
	w.U32(uint32(len(targetQuotes)))
	for _, q := range targetQuotes {
		w.Var(q)
	}
	w.U32(uint32(len(peerQuotes)))
	for _, q := range peerQuotes {
		w.Var(q)
	}
	w.Var(adminChannel)
	return w.Bytes()
}

// ReshardBeginResult is the lead's output: one sealed payload per peer
// source shard (index 1..oldShards-1, in order) and per target shard,
// plus — when the host relayed an admin channel — the new generation's
// admin handoff sealed to that channel.
type ReshardBeginResult struct {
	PeerPayloads   []SealedPayload
	TargetPayloads []SealedPayload
	AdminPayload   SealedPayload
}

// Encode serializes the result (enclave side).
func (res *ReshardBeginResult) Encode() []byte {
	size := 16 + len(res.AdminPayload.SenderPub) + len(res.AdminPayload.Ciphertext)
	for _, p := range res.PeerPayloads {
		size += 8 + len(p.SenderPub) + len(p.Ciphertext)
	}
	for _, p := range res.TargetPayloads {
		size += 8 + len(p.SenderPub) + len(p.Ciphertext)
	}
	w := wire.NewWriter(size)
	w.U32(uint32(len(res.PeerPayloads)))
	for i := range res.PeerPayloads {
		res.PeerPayloads[i].encodeTo(w)
	}
	w.U32(uint32(len(res.TargetPayloads)))
	for i := range res.TargetPayloads {
		res.TargetPayloads[i].encodeTo(w)
	}
	res.AdminPayload.encodeTo(w)
	return w.Bytes()
}

// DecodeReshardBeginResult parses the lead's begin response (host side).
func DecodeReshardBeginResult(b []byte) (*ReshardBeginResult, error) {
	r := wire.NewReader(b)
	res := &ReshardBeginResult{}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		res.PeerPayloads = append(res.PeerPayloads, decodeSealedPayload(r))
	}
	n = r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		res.TargetPayloads = append(res.TargetPayloads, decodeSealedPayload(r))
	}
	res.AdminPayload = decodeSealedPayload(r)
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode reshard begin result: %w", err)
	}
	return res, nil
}

// EncodeReshardPrepareCall delivers a peer its sealed generation payload.
func EncodeReshardPrepareCall(p SealedPayload) []byte {
	w := wire.NewWriter(9 + len(p.SenderPub) + len(p.Ciphertext))
	w.U8(callReshardPrepare)
	p.encodeTo(w)
	return w.Bytes()
}

// EncodeReshardExportCall asks a frozen source shard for its pieces and
// handoff.
func EncodeReshardExportCall() []byte {
	return []byte{callReshardExport}
}

// ReshardExportResult is one source shard's export: the client-facing
// handoff (sealed under the source's kC) and one piece per target shard
// (sealed under the generation key kR), in new-shard order.
type ReshardExportResult struct {
	Handoff []byte
	Pieces  [][]byte
}

// Encode serializes the result (enclave side).
func (res *ReshardExportResult) Encode() []byte {
	size := 8 + len(res.Handoff)
	for _, p := range res.Pieces {
		size += 4 + len(p)
	}
	w := wire.NewWriter(size)
	w.Var(res.Handoff)
	w.U32(uint32(len(res.Pieces)))
	for _, p := range res.Pieces {
		w.Var(p)
	}
	return w.Bytes()
}

// DecodeReshardExportResult parses a source's export response (host side).
func DecodeReshardExportResult(b []byte) (*ReshardExportResult, error) {
	r := wire.NewReader(b)
	res := &ReshardExportResult{Handoff: r.Var()}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		res.Pieces = append(res.Pieces, r.Var())
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode reshard export result: %w", err)
	}
	return res, nil
}

// EncodeReshardImportCall delivers a target its lead payload and the
// pieces of every source shard (in source order).
func EncodeReshardImportCall(lead SealedPayload, pieces [][]byte) []byte {
	size := 13 + len(lead.SenderPub) + len(lead.Ciphertext)
	for _, p := range pieces {
		size += 4 + len(p)
	}
	w := wire.NewWriter(size)
	w.U8(callReshardImport)
	w.Var(lead.SenderPub)
	w.Var(lead.Ciphertext)
	w.U32(uint32(len(pieces)))
	for _, p := range pieces {
		w.Var(p)
	}
	return w.Bytes()
}

// EncodeReshardAbortCall unfreezes a source that has prepared but not
// yet exported, abandoning the reshard attempt.
func EncodeReshardAbortCall() []byte {
	return []byte{callReshardAbort}
}

// ---- Client-facing reshard metadata ----

// ReshardInfo is what the host serves to clients after a completed
// reshard (wire.FrameReshardInfo): the new generation and layout —
// untrusted routing metadata — plus every old shard's handoff ciphertext,
// which is where the trust lives (each is sealed under that shard's kC).
type ReshardInfo struct {
	Gen       uint64
	OldShards int
	NewShards int
	Handoffs  [][]byte // indexed by old shard
}

// Encode serializes the info (host side).
func (ri *ReshardInfo) Encode() []byte {
	size := 20
	for _, h := range ri.Handoffs {
		size += 4 + len(h)
	}
	w := wire.NewWriter(size)
	w.U64(ri.Gen)
	w.U32(uint32(ri.OldShards))
	w.U32(uint32(ri.NewShards))
	w.U32(uint32(len(ri.Handoffs)))
	for _, h := range ri.Handoffs {
		w.Var(h)
	}
	return w.Bytes()
}

// DecodeReshardInfo parses reshard info (client side).
func DecodeReshardInfo(b []byte) (*ReshardInfo, error) {
	r := wire.NewReader(b)
	ri := &ReshardInfo{
		Gen:       r.U64(),
		OldShards: int(r.U32()),
		NewShards: int(r.U32()),
	}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		ri.Handoffs = append(ri.Handoffs, r.Var())
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode reshard info: %w", err)
	}
	return ri, nil
}

// ReshardEntry is one client's final V entry on a source shard, as
// pinned by that shard's handoff: the same (acknowledged, last) context
// pair Alg. 2 verifies on every INVOKE, plus the Sec. 4.6.1 cached REPLY
// ciphertext. Carrying the cached reply lets a client whose operation
// executed right before the freeze recover its result across the
// generation change instead of only learning "it ran, the value is gone".
type ReshardEntry struct {
	ID        uint32
	TA        uint64
	HA        hashchain.Value
	T         uint64
	H         hashchain.Value
	LastReply []byte
}

// ReshardHandoff is the plaintext of one source shard's handoff. Clients
// open it with the source's kC and verify their own entry against their
// stored context before adopting the new generation. It carries every
// member of V, so its size is O(registered clients), as the paper's
// migration handoff is (Sec. 4.6.2; a migration is a reshard).
type ReshardHandoff struct {
	Gen       uint64
	OldShards int
	NewShards int
	Src       int
	Seq       uint64          // the source's final t
	Head      hashchain.Value // the source's final h
	Entries   []ReshardEntry  // ascending by ID
	NewKCs    [][]byte        // lead (src 0) only: one kC per new shard
}

func (h *ReshardHandoff) encode() []byte {
	size := 68 + len(h.Entries)*(8+16+2*hashchain.Size)
	for _, e := range h.Entries {
		size += len(e.LastReply)
	}
	for _, kc := range h.NewKCs {
		size += 4 + len(kc)
	}
	w := wire.NewWriter(size)
	w.U64(h.Gen)
	w.U32(uint32(h.OldShards))
	w.U32(uint32(h.NewShards))
	w.U32(uint32(h.Src))
	w.U64(h.Seq)
	w.Bytes32(h.Head)
	w.U32(uint32(len(h.Entries)))
	for _, e := range h.Entries {
		w.U32(e.ID)
		w.U64(e.TA)
		w.Bytes32(e.HA)
		w.U64(e.T)
		w.Bytes32(e.H)
		w.Var(e.LastReply)
	}
	w.U32(uint32(len(h.NewKCs)))
	for _, kc := range h.NewKCs {
		w.Var(kc)
	}
	return w.Bytes()
}

func decodeReshardHandoff(b []byte) (*ReshardHandoff, error) {
	r := wire.NewReader(b)
	h := &ReshardHandoff{
		Gen:       r.U64(),
		OldShards: int(r.U32()),
		NewShards: int(r.U32()),
		Src:       int(r.U32()),
		Seq:       r.U64(),
		Head:      r.Bytes32(),
	}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		h.Entries = append(h.Entries, ReshardEntry{
			ID:        r.U32(),
			TA:        r.U64(),
			HA:        r.Bytes32(),
			T:         r.U64(),
			H:         r.Bytes32(),
			LastReply: r.Var(),
		})
	}
	n = r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		h.NewKCs = append(h.NewKCs, r.Var())
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode reshard handoff: %w", err)
	}
	return h, nil
}

// Entry returns the handoff's V entry for the given client, if present.
func (h *ReshardHandoff) Entry(id uint32) (ReshardEntry, bool) {
	for _, e := range h.Entries {
		if e.ID == id {
			return e, true
		}
	}
	return ReshardEntry{}, false
}

// OpenReshardHandoff authenticates and decodes a source shard's handoff
// with that shard's communication key. An open failure means the handoff
// was not produced by the shard the client shares kc with — forged,
// transplanted from another deployment, or mislabelled by the host.
func OpenReshardHandoff(kc aead.Key, sealed []byte) (*ReshardHandoff, error) {
	plain, err := aead.Open(kc, sealed, []byte(adReshardHandoff))
	if err != nil {
		return nil, fmt.Errorf("lcm: reshard handoff failed authentication: %w", err)
	}
	return decodeReshardHandoff(plain)
}

// ---- Sealed intra-protocol payloads ----

// reshardPeerPayload is what the lead seals to each peer source's
// channel key at BEGIN.
type reshardPeerPayload struct {
	Gen       uint64
	OldShards int
	NewShards int
	Src       int
	KR        []byte
}

func (p *reshardPeerPayload) encode() []byte {
	w := wire.NewWriter(28 + len(p.KR))
	w.U64(p.Gen)
	w.U32(uint32(p.OldShards))
	w.U32(uint32(p.NewShards))
	w.U32(uint32(p.Src))
	w.Var(p.KR)
	return w.Bytes()
}

func decodeReshardPeerPayload(b []byte) (*reshardPeerPayload, error) {
	r := wire.NewReader(b)
	p := &reshardPeerPayload{
		Gen:       r.U64(),
		OldShards: int(r.U32()),
		NewShards: int(r.U32()),
		Src:       int(r.U32()),
	}
	p.KR = r.Var()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode reshard peer payload: %w", err)
	}
	return p, nil
}

// reshardTargetPayload is what the lead seals to each target's channel
// key at BEGIN: the target's identity in the new layout plus its fresh
// protocol keys and client group.
type reshardTargetPayload struct {
	Gen       uint64
	OldShards int
	NewShards int
	Self      int
	KR        []byte
	KP        []byte
	KC        []byte
	Clients   []uint32
}

func (p *reshardTargetPayload) encode() []byte {
	w := wire.NewWriter(40 + len(p.KR) + len(p.KP) + len(p.KC) + 4*len(p.Clients))
	w.U64(p.Gen)
	w.U32(uint32(p.OldShards))
	w.U32(uint32(p.NewShards))
	w.U32(uint32(p.Self))
	w.Var(p.KR)
	w.Var(p.KP)
	w.Var(p.KC)
	w.U32(uint32(len(p.Clients)))
	for _, id := range p.Clients {
		w.U32(id)
	}
	return w.Bytes()
}

func decodeReshardTargetPayload(b []byte) (*reshardTargetPayload, error) {
	r := wire.NewReader(b)
	p := &reshardTargetPayload{
		Gen:       r.U64(),
		OldShards: int(r.U32()),
		NewShards: int(r.U32()),
		Self:      int(r.U32()),
	}
	p.KR = r.Var()
	p.KP = r.Var()
	p.KC = r.Var()
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		p.Clients = append(p.Clients, r.U32())
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode reshard target payload: %w", err)
	}
	return p, nil
}

// reshardAdminHandoff is what the lead seals to the admin's reshard
// channel at BEGIN: the new generation's per-shard protocol keys, so the
// admin can keep performing membership changes (Sec. 4.6.3) after the
// move without re-bootstrapping. The group is the enclaves' (Members).
type reshardAdminHandoff struct {
	Gen       uint64
	NewShards int
	KPs       [][]byte // one per new shard
	KCs       [][]byte // one per new shard
}

func (h *reshardAdminHandoff) encode() []byte {
	size := 16
	for i := range h.KPs {
		size += 8 + len(h.KPs[i]) + len(h.KCs[i])
	}
	w := wire.NewWriter(size)
	w.U64(h.Gen)
	w.U32(uint32(h.NewShards))
	w.U32(uint32(len(h.KPs)))
	for i := range h.KPs {
		w.Var(h.KPs[i])
		w.Var(h.KCs[i])
	}
	return w.Bytes()
}

func decodeReshardAdminHandoff(b []byte) (*reshardAdminHandoff, error) {
	r := wire.NewReader(b)
	h := &reshardAdminHandoff{
		Gen:       r.U64(),
		NewShards: int(r.U32()),
	}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		h.KPs = append(h.KPs, r.Var())
		h.KCs = append(h.KCs, r.Var())
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode reshard admin handoff: %w", err)
	}
	return h, nil
}

// reshardPiece is what a source seals under kR for one target: the
// source's state key, pinned chain head and pending delta. The bulk service state
// travels as the host-copied sealed blob + delta log, verified against
// Head at import.
type reshardPiece struct {
	Gen     uint64
	Src     int
	Dst     int
	KP      []byte
	Head    [32]byte
	Pending []byte
}

func (p *reshardPiece) encode() []byte {
	w := wire.NewWriter(60 + len(p.KP) + len(p.Pending))
	w.U64(p.Gen)
	w.U32(uint32(p.Src))
	w.U32(uint32(p.Dst))
	w.Var(p.KP)
	w.Bytes32(p.Head)
	w.Var(p.Pending)
	return w.Bytes()
}

func decodeReshardPiece(b []byte) (*reshardPiece, error) {
	r := wire.NewReader(b)
	p := &reshardPiece{
		Gen: r.U64(),
		Src: int(r.U32()),
		Dst: int(r.U32()),
	}
	p.KP = r.Var()
	p.Head = r.Bytes32()
	p.Pending = r.Var()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode reshard piece: %w", err)
	}
	return p, nil
}

// ---- Trusted-side handlers ----

// reshardState is the enclave's volatile mid-reshard state, set at BEGIN
// (lead) or PREPARE (peers) and consumed by EXPORT.
type reshardState struct {
	kr        aead.Key
	gen       uint64
	oldShards int
	newShards int
	src       int
	newKCs    [][]byte // lead only
}

// handleReshardChallenge begins a reshard: the lead issues a fresh nonce
// with which the host must quote every target and peer.
func (p *Trusted) handleReshardChallenge(env tee.Env) ([]byte, error) {
	if !p.provisioned() {
		return nil, ErrNotProvisioned
	}
	if p.resharded {
		return nil, ErrReshardedAway
	}
	if p.attestation == nil {
		return nil, errors.New("lcm: resharding requires an attestation root")
	}
	if _, ok := p.svc.(service.Resharder); !ok {
		return nil, errors.New("lcm: service does not support resharding")
	}
	nonce := make([]byte, 32)
	if err := env.Rand(nonce); err != nil {
		return nil, fmt.Errorf("lcm: reshard nonce: %w", err)
	}
	p.reshNonce = nonce
	return append([]byte(nil), nonce...), nil
}

// handleReshardBegin runs on the lead: it verifies every quote, mints
// the generation's secrets and freezes this shard.
func (p *Trusted) handleReshardBegin(env tee.Env, newShards int, targetQuotes, peerQuotes [][]byte, adminChannel []byte) ([]byte, error) {
	if !p.provisioned() {
		return nil, ErrNotProvisioned
	}
	if p.resharded {
		return nil, ErrReshardedAway
	}
	if p.resh != nil {
		return nil, ErrResharding
	}
	if p.reshNonce == nil {
		return nil, errors.New("lcm: no outstanding reshard challenge")
	}
	if newShards < 1 || newShards != len(targetQuotes) {
		return nil, fmt.Errorf("lcm: reshard to %d shards with %d target quotes", newShards, len(targetQuotes))
	}
	nonce := p.reshNonce
	p.reshNonce = nil

	verify := func(quoteBytes []byte) ([]byte, error) {
		quote, err := DecodeQuote(quoteBytes)
		if err != nil {
			return nil, err
		}
		if err := p.attestation.Verify(*quote, tee.Measure(p.Identity()), nonce); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrReshardAttestation, err)
		}
		return quote.UserData, nil
	}

	gen := p.gen + 1
	oldShards := len(peerQuotes) + 1
	kr, err := aead.NewKey()
	if err != nil {
		return nil, err
	}
	res := &ReshardBeginResult{}

	// Peers: shard indices 1..oldShards-1, assigned by the lead and
	// sealed, so the host cannot relabel a source without the mismatch
	// surfacing in the handoffs clients verify.
	for i, q := range peerQuotes {
		channelPub, err := verify(q)
		if err != nil {
			return nil, fmt.Errorf("lcm: reshard peer %d: %w", i+1, err)
		}
		payload := reshardPeerPayload{
			Gen: gen, OldShards: oldShards, NewShards: newShards,
			Src: i + 1, KR: kr.Bytes(),
		}
		senderPub, ct, err := securechannel.Seal(channelPub, payload.encode())
		if err != nil {
			return nil, fmt.Errorf("lcm: seal reshard peer payload: %w", err)
		}
		res.PeerPayloads = append(res.PeerPayloads, SealedPayload{SenderPub: senderPub, Ciphertext: ct})
	}

	// Targets: fresh (kP, kC) per new shard, minted inside the lead so
	// the host never sees a key.
	clients := p.g.v.clientIDs()
	newKCs := make([][]byte, 0, newShards)
	newKPs := make([][]byte, 0, newShards)
	for j, q := range targetQuotes {
		channelPub, err := verify(q)
		if err != nil {
			return nil, fmt.Errorf("lcm: reshard target %d: %w", j, err)
		}
		kp, err := aead.NewKey()
		if err != nil {
			return nil, err
		}
		kc, err := aead.NewKey()
		if err != nil {
			return nil, err
		}
		newKCs = append(newKCs, kc.Bytes())
		newKPs = append(newKPs, kp.Bytes())
		payload := reshardTargetPayload{
			Gen: gen, OldShards: oldShards, NewShards: newShards, Self: j,
			KR: kr.Bytes(), KP: kp.Bytes(), KC: kc.Bytes(), Clients: clients,
		}
		senderPub, ct, err := securechannel.Seal(channelPub, payload.encode())
		if err != nil {
			return nil, fmt.Errorf("lcm: seal reshard target payload: %w", err)
		}
		res.TargetPayloads = append(res.TargetPayloads, SealedPayload{SenderPub: senderPub, Ciphertext: ct})
	}

	// Admin continuity: if the host relayed an admin channel, it must be
	// authentic — the channel public key is sealed under this shard's kP,
	// which the host does not hold. The lead answers with the whole key
	// set of the new generation sealed to that channel, so membership
	// changes keep working after the sources retire.
	if len(adminChannel) > 0 {
		adminPub, err := aead.Open(p.kp, adminChannel, []byte(adReshardAdminCh))
		if err != nil {
			return nil, fmt.Errorf("lcm: reshard admin channel failed authentication: %w", err)
		}
		handoff := reshardAdminHandoff{
			Gen: gen, NewShards: newShards, KPs: newKPs, KCs: newKCs,
		}
		senderPub, ct, err := securechannel.Seal(adminPub, handoff.encode())
		if err != nil {
			return nil, fmt.Errorf("lcm: seal reshard admin handoff: %w", err)
		}
		res.AdminPayload = SealedPayload{SenderPub: senderPub, Ciphertext: ct}
	}

	p.resh = &reshardState{
		kr: kr, gen: gen, oldShards: oldShards, newShards: newShards,
		src: 0, newKCs: newKCs,
	}
	return res.Encode(), nil
}

// handleReshardPrepare runs on a peer source: it joins the generation
// the lead minted and freezes.
func (p *Trusted) handleReshardPrepare(env tee.Env, senderPub, ct []byte) ([]byte, error) {
	if !p.provisioned() {
		return nil, ErrNotProvisioned
	}
	if p.resharded {
		return nil, ErrReshardedAway
	}
	if p.resh != nil {
		return nil, ErrResharding
	}
	if _, ok := p.svc.(service.Resharder); !ok {
		return nil, errors.New("lcm: service does not support resharding")
	}
	plain, err := p.channel.Open(senderPub, ct)
	if err != nil {
		return nil, fmt.Errorf("lcm: reshard prepare channel: %w", err)
	}
	payload, err := decodeReshardPeerPayload(plain)
	if err != nil {
		return nil, err
	}
	if payload.Gen != p.gen+1 {
		return nil, fmt.Errorf("lcm: reshard generation %d does not follow this shard's %d", payload.Gen, p.gen)
	}
	if payload.Src < 1 || payload.Src >= payload.OldShards || payload.NewShards < 1 {
		return nil, fmt.Errorf("lcm: reshard prepare with inconsistent layout (src %d of %d→%d)",
			payload.Src, payload.OldShards, payload.NewShards)
	}
	kr, err := aead.KeyFromBytes(payload.KR)
	if err != nil {
		return nil, fmt.Errorf("lcm: reshard kR: %w", err)
	}
	p.resh = &reshardState{
		kr: kr, gen: payload.Gen, oldShards: payload.OldShards,
		newShards: payload.NewShards, src: payload.Src,
	}
	return []byte("ok"), nil
}

// handleReshardExport runs on every frozen source: it emits the pieces
// and the handoff, then stops processing permanently (the source's
// state now lives in the new generation).
func (p *Trusted) handleReshardExport(env tee.Env) (_ []byte, err error) {
	if p.resharded {
		return nil, ErrReshardedAway
	}
	if p.resh == nil {
		return nil, errors.New("lcm: reshard export without prepare")
	}
	resh := p.resh

	// Pending service changes not yet covered by a persisted record.
	// Delta() resets the service's change tracking, so if anything below
	// fails an inline seal covers them before the error returns.
	var pending []byte
	if p.deltaSvc != nil {
		if pending, err = p.deltaSvc.Delta(); err != nil {
			return nil, fmt.Errorf("lcm: pending delta for reshard: %w", err)
		}
		defer func() {
			if err != nil && len(pending) > 0 {
				err = errors.Join(err, p.persist(env))
			}
		}()
	}

	res := &ReshardExportResult{}
	for dst := 0; dst < resh.newShards; dst++ {
		piece := reshardPiece{
			Gen: resh.gen, Src: resh.src, Dst: dst,
			KP: p.kp.Bytes(), Head: p.chainPrev, Pending: pending,
		}
		sealed, err := aead.Seal(resh.kr, piece.encode(), []byte(adReshardPiece))
		if err != nil {
			return nil, fmt.Errorf("lcm: seal reshard piece: %w", err)
		}
		res.Pieces = append(res.Pieces, sealed)
	}

	handoff := ReshardHandoff{
		Gen: resh.gen, OldShards: resh.oldShards, NewShards: resh.newShards,
		Src: resh.src, Seq: p.t, Head: p.h, NewKCs: resh.newKCs,
	}
	for _, id := range p.g.v.clientIDs() {
		e := p.g.v[id]
		entry := ReshardEntry{ID: id, TA: e.TA, HA: e.HA, T: e.T, H: e.H}
		if e.Reply != nil {
			if entry.LastReply, err = e.sealedReply(p.kc); err != nil {
				return nil, tee.Halt("cached reply does not reconstruct", err)
			}
		}
		handoff.Entries = append(handoff.Entries, entry)
	}
	sealedHandoff, err := aead.Seal(p.kc, handoff.encode(), []byte(adReshardHandoff))
	if err != nil {
		return nil, fmt.Errorf("lcm: seal reshard handoff: %w", err)
	}
	res.Handoff = sealedHandoff

	// Point of no return: this context stops processing (Sec. 4.6.2's
	// migration origin), and leaves a checkpoint not yet sealed unsealed.
	p.resharded = true
	p.resh = nil
	p.pending.Store(nil)
	return res.Encode(), nil
}

// handleReshardAbort abandons a reshard on a source that has frozen but
// not yet exported, resuming normal service.
func (p *Trusted) handleReshardAbort(env tee.Env) ([]byte, error) {
	if p.resharded {
		return nil, ErrReshardedAway
	}
	p.resh = nil
	p.reshNonce = nil
	return []byte("ok"), nil
}

// handleReshardImport runs on a fresh target: it adopts the generation
// the lead minted and rebuilds its slice of the keyspace from every
// source's host-copied chain.
func (p *Trusted) handleReshardImport(env tee.Env, senderPub, leadCT []byte, pieces [][]byte) ([]byte, error) {
	if p.provisioned() {
		return nil, ErrAlreadyProvisioned
	}
	resharder, ok := p.svc.(service.Resharder)
	if !ok {
		return nil, errors.New("lcm: service does not support resharding")
	}
	plain, err := p.channel.Open(senderPub, leadCT)
	if err != nil {
		return nil, fmt.Errorf("lcm: reshard import channel: %w", err)
	}
	payload, err := decodeReshardTargetPayload(plain)
	if err != nil {
		return nil, err
	}
	if payload.OldShards < 1 || payload.NewShards < 1 ||
		payload.Self < 0 || payload.Self >= payload.NewShards {
		return nil, fmt.Errorf("lcm: reshard import with inconsistent layout (self %d of %d→%d)",
			payload.Self, payload.OldShards, payload.NewShards)
	}
	if len(pieces) != payload.OldShards {
		return nil, fmt.Errorf("lcm: reshard import with %d pieces for %d source shards",
			len(pieces), payload.OldShards)
	}
	if len(payload.Clients) == 0 {
		return nil, errors.New("lcm: reshard import with empty client group")
	}
	kr, err := aead.KeyFromBytes(payload.KR)
	if err != nil {
		return nil, fmt.Errorf("lcm: reshard kR: %w", err)
	}
	kp, err := aead.KeyFromBytes(payload.KP)
	if err != nil {
		return nil, fmt.Errorf("lcm: reshard kP: %w", err)
	}
	kc, err := aead.KeyFromBytes(payload.KC)
	if err != nil {
		return nil, fmt.Errorf("lcm: reshard kC: %w", err)
	}

	// One fragment per source: fold the host-copied chain, verify it
	// ends at the piece's pinned head, apply the pending delta, and keep
	// our slice of the reconstructed state. Sources are processed one at
	// a time so peak memory is one source state plus our fragments.
	fragments := make([][]byte, payload.OldShards)
	seen := make([]bool, payload.OldShards)
	for _, sealed := range pieces {
		piecePlain, err := aead.Open(kr, sealed, []byte(adReshardPiece))
		if err != nil {
			return nil, fmt.Errorf("lcm: reshard piece failed authentication: %w", err)
		}
		piece, err := decodeReshardPiece(piecePlain)
		if err != nil {
			return nil, err
		}
		if piece.Gen != payload.Gen {
			return nil, fmt.Errorf("lcm: reshard piece from generation %d, want %d", piece.Gen, payload.Gen)
		}
		if piece.Dst != payload.Self {
			return nil, fmt.Errorf("lcm: reshard piece addressed to shard %d, not %d", piece.Dst, payload.Self)
		}
		if piece.Src < 0 || piece.Src >= payload.OldShards {
			return nil, fmt.Errorf("lcm: reshard piece from source %d of %d", piece.Src, payload.OldShards)
		}
		if seen[piece.Src] {
			return nil, fmt.Errorf("lcm: duplicate reshard piece from source %d", piece.Src)
		}
		seen[piece.Src] = true
		frag, err := p.reshardSourceFragment(env, piece, payload.NewShards, payload.Self)
		if err != nil {
			return nil, fmt.Errorf("lcm: reshard source %d: %w", piece.Src, err)
		}
		fragments[piece.Src] = frag
	}
	for src, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("lcm: reshard import missing source %d's piece", src)
		}
	}
	if err := resharder.MergeState(fragments); err != nil {
		return nil, fmt.Errorf("lcm: reshard merge: %w", err)
	}

	// Adopt the new identity: fresh keys, fresh client contexts, fresh
	// chain. The clients reset their per-shard contexts when they adopt
	// the generation (after verifying the handoffs), so the V map starts
	// at zero like a bootstrap.
	p.kp, p.kc = kp, kc
	p.g = p.freshGroup(payload.Clients)
	p.adminSeq = 0
	p.gen = payload.Gen
	p.t, p.h = 0, hashchain.Initial()
	p.chargeFootprint(env)
	if err := p.persist(env); err != nil {
		return nil, err
	}
	return []byte("ok"), nil
}

// reshardSourceFragment reconstructs one source shard's state from the
// host-staged copy of its sealed blob + delta log and returns this
// target's fragment of it. The fold applies the same acceptance rules as
// recovery (state.go): per-record authentication under the source's kP,
// an unbroken predecessor chain across the staged segments, and sequence
// continuity — and it additionally must end exactly at the head the
// source pinned inside the sealed piece, so a stale, truncated or
// tampered copy is refused rather than imported.
func (p *Trusted) reshardSourceFragment(env tee.Env, piece *reshardPiece, newShards, self int) ([]byte, error) {
	kp, err := aead.KeyFromBytes(piece.KP)
	if err != nil {
		return nil, fmt.Errorf("source kP malformed: %w", err)
	}
	// Fold the staged chain in a scratch context, with recovery's rules. A
	// copy that breaks them is refused, not a violation of this context.
	src := &Trusted{newService: p.newService}
	src.useService(p.newService())
	err = src.openChain(quietEnv{env}, kp, func(slot string) string { return ReshardSrcSlot(piece.Src, slot) },
		func(reason string, err error) error { return fmt.Errorf("%s: %w", reason, err) })
	var halt *tee.HaltError
	if errors.As(err, &halt) {
		err = errors.New(halt.Reason)
	}
	if err != nil {
		return nil, fmt.Errorf("staged chain: %w", err)
	}
	if src.chainPrev != piece.Head {
		return nil, errors.New("staged chain does not reach the source's exported head")
	}
	svc, deltaSvc := src.svc, src.deltaSvc // the source state, folded
	if len(piece.Pending) > 0 {
		if deltaSvc == nil {
			return nil, errors.New("pending delta present but service cannot apply deltas")
		}
		if err := deltaSvc.ApplyDelta(piece.Pending); err != nil {
			return nil, fmt.Errorf("pending delta malformed: %w", err)
		}
	}
	resharder, ok := svc.(service.Resharder)
	if !ok {
		return nil, errors.New("service does not support resharding")
	}
	fragments, err := resharder.PartitionState(newShards)
	if err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	return fragments[self], nil
}

// quietEnv charges no enclave memory: a scratch context that is about to
// be discarded.
type quietEnv struct{ tee.Env }

func (quietEnv) ChargeMemory(int64) {}
