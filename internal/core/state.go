package core

// Persistent state format
//
// LCM's trusted context persists three objects on the host's untrusted
// stable storage (Sec. 4.3/4.4, extended with incremental persistence):
//
//	blobkey   (SlotKeyBlob)   — kP sealed under the TEE sealing key kS.
//	blobstate (SlotStateBlob) — a full snapshot (s, V, kC, adminSeq)
//	                            sealed under kP: a checkpoint or an
//	                            inline seal.
//	segments  (SegmentSlot(n)) — logs of sealed delta records, one per
//	                            batch, in delta mode.
//
// A state blob is U8 stateVersion, U64 Seg (the segment holding the
// records after it), then the AEAD ciphertext of trustedState under kP
// with adStateBlob and those 9 bytes as associated data: the host reads
// Seg without kP, and cannot change it. An unknown version, or a blob
// from before the header, fails with ErrStateVersion. trustedState ends
// with Head, the chain value the first record of segment Seg links to.
//
// # Delta record layout
//
// Each record's plaintext (version 2) is:
//
//	U8       version      recordVersion
//	U8       flags        which optional fields [..] follow
//	U64      FromT        t before the batch (chain continuity check)
//	U64      ToT          t after the batch
//	U64      AdminSeq     must equal the base blob's (admin ops re-seal)
//	Bytes32  Prev         SHA-256 of the predecessor ciphertext
//	U32      n            number of touched V entries
//	n ×      U32 id, [U64 TA, Bytes32 HA], U64 T, Bytes32 H, Var LastReply
//	[Var     ServiceDelta]  service.DeltaService.Delta() output
//	[U64     BeaconSeq, U64 BeaconTick]
//	[U32 m, m × U32 id]     members this record removed from the group
//	[U64     GroupEpoch]    membership epoch (group.go)
//	[U64     QFloor]        monotone stability floor
//
// and is sealed with AEAD under kP with associated data adDeltaLog. An
// optional field is written only when the fold (applyRecord) cannot
// derive it; absent, the fold supplies it:
//
//   - (TA, HA), per record: absent when every entry is an op that ran.
//     The fold takes the (T, H) its entry held before, which is exactly
//     what handleInvoke's context assert (V[i] = (∗, tc, hc)) moved there.
//     Churn joins (no earlier entry) and retries (unchanged entry) carry
//     them.
//   - ServiceDelta: absent when the service changed nothing (a get).
//   - The beacon pair: absent outside beacon records; the removal list:
//     absent when empty.
//   - GroupEpoch and QFloor: absent while they equal what the chain held
//     (chainEpoch, chainQFloor); the fold keeps its own.
//
// The head (t, h) after the record is not written: when an op ran, its
// client's entry names ToT and the fold takes that entry's (T, H); a
// record in which none ran (FromT == ToT: beacon, epoch, churn, retries)
// leaves the head where it was. Heartbeat beacon records (trusted.go) ride
// the same chain, so a clone committing beacons forks it like any other
// divergent writer.
//
// Old data fails with a named error, and there is no in-place migration:
// a record of another version (version 1 has no version byte; its first
// byte, FromT's high byte, reads as 0) with ErrRecordVersion, and a log
// segment without stablestore.LogHeader with stablestore.ErrLogVersion.
//
// # Chaining and checkpoints
//
// Prev binds every record to the exact ciphertext that precedes it, or
// to the blob's Head. The chain runs across segments in segment order and
// never restarts. The batch that takes the chain's sealed bytes past
// CompactRatio times the last snapshot's size (within CompactMinRecords
// and CompactMaxRecords records) appends its record, then cuts: it
// freezes V, the group and beacon state, the head h_S at its sequence S
// and a view of the service (service.Freezer, or Snapshot), and later
// records go to the next segment. The host seals the frozen state off
// the request path, stores it once S is durable, and drops the segments
// below it. Recovery folds the blob's segment and every later one that
// holds records; the cut record closed the segment before, so none of
// them holds a record at or before S. Inline seals write the blob at
// once, with the current head, in a new segment unless the current one
// is empty. The rollback argument, row by row:
//
//   - Old blob + a longer log is the full chain: every later segment
//     links. A crash before the blob write, or a failed one, leaves this.
//   - New blob + a stale or missing post-S segment is a truncated suffix.
//     Clients whose contexts are ahead of the folded V detect it.
//   - Spliced, swapped or reordered segments break a link: halt.
//   - A crash between the blob write and the drop leaves segments below
//     the blob's, which recovery never reads; a crash during an append
//     leaves a torn tail, which is a truncated suffix of unacknowledged
//     records.
//
// # Group commit (host side)
//
// The enclave's per-batch output is one sealed delta record; making it
// durable is the host's job, and under fsync-per-write storage that cost
// dominates. The host's group-commit pipeline (internal/host) therefore
// decouples the ecall loop from persistence: batch results queue at a
// committer which appends every queued record in one Store.AppendGroup
// call — a single write and a single fsync for the whole group — while
// the next ecall already runs. Replies are still released only after the
// group's fsync returns, so the crash-tolerance contract (a reply seen by
// a client implies its record is durable) is unchanged; the enclave may
// merely run ahead of the disk by the in-flight window, which a crash
// converts into ordinary unacknowledged work. A failed group is handled
// like a crash: the host restarts the enclave so the chain re-folds from
// the on-disk segments, and the affected clients converge through the
// Sec. 4.6.1 retry protocol. Non-batch ecalls (status, admin, migration)
// act as barriers — the host flushes the committer first — so every
// administrative view of the storage is consistent with acknowledged
// batches.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"lcm/internal/aead"

	"lcm/internal/hashchain"
	"lcm/internal/wire"
)

// Stable-storage slot names and associated-data labels.
const (
	SlotKeyBlob   = "lcm-keyblob"
	SlotStateBlob = "lcm-stateblob"
	SlotDeltaLog  = "lcm-deltalog"

	adKeyBlob   = "lcm/blob/key/v1"
	adStateBlob = "lcm/blob/state/v1"
	adDeltaLog  = "lcm/blob/delta/v1"
	adAdminMsg  = "lcm/msg/admin/v1"
	adMigration = "lcm/migration/v1"

	// Reshard labels (see reshard.go): pieces are sealed under the
	// generation key kR, handoffs under the source shard's kC, and the
	// admin's reshard-channel public key under the old generation's kP —
	// only the admin and the lead hold kP, so an authenticated channel
	// blob proves the channel terminates at the admin.
	adReshardPiece   = "lcm/reshard/piece/v1"
	adReshardHandoff = "lcm/reshard/handoff/v1"
	adReshardAdminCh = "lcm/reshard/adminchannel/v1"
)

// blobHash condenses a sealed delta record (ciphertext) for chain
// binding.
func blobHash(blob []byte) [32]byte { return sha256.Sum256(blob) }

// SegmentSlot names log segment seg; segment 0 is SlotDeltaLog.
func SegmentSlot(seg uint64) string {
	if seg == 0 {
		return SlotDeltaLog
	}
	return SlotDeltaLog + "." + strconv.FormatUint(seg, 10)
}

// State blob header (see the layout above).
const (
	stateVersion    = 1
	stateHeaderSize = 1 + 8
)

// BlobSegment reads the segment a state blob's header names, without
// authenticating it; ok is false for an unknown version.
func BlobSegment(blob []byte) (seg uint64, ok bool) {
	if len(blob) < stateHeaderSize || blob[0] != stateVersion {
		return 0, false
	}
	return binary.BigEndian.Uint64(blob[1:stateHeaderSize]), true
}

// sealStateBlob seals s as a state blob naming segment seg, in one
// exact-size buffer sealed in place (aead.SealInPlace).
func sealStateBlob(kp aead.Key, s *trustedState, seg uint64) ([]byte, error) {
	w := wire.NewWriter(stateHeaderSize + aead.Overhead + s.encodedSize())
	w.U8(stateVersion)
	w.U64(seg)
	w.Pad(aead.NonceSize)
	s.encodeTo(w)
	buf := w.Bytes()
	ct, err := aead.SealInPlace(kp, buf[stateHeaderSize:], append([]byte(adStateBlob), buf[:stateHeaderSize]...))
	return buf[:stateHeaderSize+len(ct)], err
}

// openStateBlob authenticates and decodes a loaded state blob in place
// and returns the segment it names. An unknown version, or a headerless
// blob (one that opens under the bare label), fails with ErrStateVersion;
// a failed open leaves blob undefined, so that probe opens a reload.
func openStateBlob(kp aead.Key, blob []byte, reload func() ([]byte, error)) (*trustedState, uint64, error) {
	seg, ok := BlobSegment(blob)
	if !ok {
		return nil, 0, ErrStateVersion
	}
	plain, err := aead.OpenInPlace(kp, blob[stateHeaderSize:], append([]byte(adStateBlob), blob[:stateHeaderSize]...))
	if err != nil {
		if fresh, lerr := reload(); lerr == nil {
			if _, lerr := aead.Open(kp, fresh, []byte(adStateBlob)); lerr == nil {
				return nil, 0, ErrStateVersion // headerless, its nonce began with the version byte
			}
		}
		return nil, 0, err
	}
	state, err := decodeTrustedState(plain)
	return state, seg, err
}

// trustedState is the plaintext of the sealed state blob: the protocol
// state V, the communication key kC, the admin sequence number and the
// service snapshot. Alg. 2's init recovers (t, h) as V[argmax(V)]; since
// membership removals can delete the entry holding the head, the blob
// carries that pair as (SeqT, SeqH) in the group section, and recovery
// installs it.
type trustedState struct {
	AdminSeq uint64
	Gen      uint64 // reshard generation this context belongs to
	KC       []byte
	V        vmap
	Snapshot []byte
	// Beacon bookkeeping (see trusted.go's heartbeat beacon): the number
	// of beacon records this context has committed and the platform
	// counter tick the latest one reserved. Sealed with the rest of the
	// state so a restarted context resumes the reservation protocol where
	// the chain left off.
	BeaconSeq  uint64
	BeaconTick uint64
	// Group section (see group.go): the membership epoch, the monotone
	// stability floor, the runtime committee-size override (0 = config
	// default), the eviction tombstones and counter, and the authoritative
	// sequence head.
	GroupEpoch    uint64
	QFloor        uint64
	CommitteeSize uint32
	Evicted       []uint32
	Evictions     uint64
	SeqT          uint64
	SeqH          hashchain.Value
	// Head is the chain value the first record after this blob links to
	// (the hash of the cut's record, or the head at an inline seal).
	Head [32]byte
}

func (s *trustedState) encodedSize() int {
	size := 56 + len(s.KC) + len(s.Snapshot) + 40 + hashchain.Size + 32 + 4*len(s.Evicted)
	for _, e := range s.V {
		size += vEntryMinSize + len(e.LastReply)
	}
	return size
}

// vEntryMinSize is an encoded V entry's size with an empty LastReply;
// anchorSize is the part that is its (TA, HA).
const (
	vEntryMinSize = 4 + 8 + 8 + 2*hashchain.Size + 4
	anchorSize    = 8 + hashchain.Size
)

// encodeVMap writes v count-prefixed, in ascending id order, each entry's
// (TA, HA) only when anchors is set.
func encodeVMap(w *wire.Writer, v vmap, anchors bool) {
	w.U32(uint32(len(v)))
	for _, id := range v.clientIDs() {
		e := v[id]
		w.U32(id)
		if anchors {
			w.U64(e.TA)
			w.Bytes32(e.HA)
		}
		w.U64(e.T)
		w.Bytes32(e.H)
		w.Var(e.LastReply)
	}
}

// decodeVMap reads what encodeVMap writes. Any other entry order, or a
// repeated id, is malformed, so every V that decodes has one encoding.
func decodeVMap(r *wire.Reader, anchors bool) vmap {
	n := r.Count(vEntryMinSize - anchorSize)
	v := make(vmap, n)
	for i, prev := 0, int64(-1); i < n; i++ {
		id := r.U32()
		if int64(id) <= prev {
			r.Fail(errors.New("V entries not in ascending id order"))
		}
		prev = int64(id)
		e := &ventry{}
		if anchors {
			e.TA, e.HA = r.U64(), r.Bytes32()
		}
		e.T, e.H = r.U64(), r.Bytes32()
		if e.LastReply = r.Var(); len(e.LastReply) == 0 {
			e.LastReply = nil
		}
		v[id] = e
	}
	return v
}

func (s *trustedState) encodeTo(w *wire.Writer) {
	w.U64(s.AdminSeq)
	w.U64(s.Gen)
	w.Var(s.KC)
	encodeVMap(w, s.V, true)
	w.Var(s.Snapshot)
	w.U64(s.BeaconSeq)
	w.U64(s.BeaconTick)
	w.U64(s.GroupEpoch)
	w.U64(s.QFloor)
	w.U32(s.CommitteeSize)
	w.U32(uint32(len(s.Evicted)))
	for _, id := range s.Evicted {
		w.U32(id)
	}
	w.U64(s.Evictions)
	w.U64(s.SeqT)
	w.Bytes32(s.SeqH)
	w.Bytes32(s.Head)
}

func (s *trustedState) encode() []byte {
	w := wire.NewWriter(s.encodedSize())
	s.encodeTo(w)
	return w.Bytes()
}

func decodeTrustedState(b []byte) (*trustedState, error) {
	r := wire.NewReader(b)
	s := &trustedState{AdminSeq: r.U64(), Gen: r.U64(), KC: r.Var(), V: decodeVMap(r, true)}
	s.Snapshot = r.VarView() // aliases b; Restore copies what it keeps
	s.BeaconSeq = r.U64()
	s.BeaconTick = r.U64()
	s.GroupEpoch = r.U64()
	s.QFloor = r.U64()
	s.CommitteeSize = r.U32()
	ne := r.Count(4)
	if ne > 0 {
		s.Evicted = make([]uint32, ne)
		for i := 0; i < ne; i++ {
			s.Evicted[i] = r.U32()
		}
	}
	s.Evictions = r.U64()
	s.SeqT = r.U64()
	s.SeqH = r.Bytes32()
	s.Head = r.Bytes32()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode trusted state: %w", err)
	}
	return s, nil
}

// deltaRecord is the plaintext of one sealed delta-log record: the batch's
// sequence range, the V entries it touched, and the service delta, chained
// to the predecessor ciphertext via Prev (see the package docs above). An
// optional field is absent when zero, empty or false.
type deltaRecord struct {
	FromT    uint64
	ToT      uint64
	AdminSeq uint64
	Prev     [32]byte
	Entries  vmap
	Anchors  bool // the entries carry their (TA, HA)
	Delta    []byte
	// BeaconSeq > 0 marks a heartbeat beacon record; BeaconTick is the
	// platform counter tick it reserved. Both zero on batch records.
	BeaconSeq  uint64
	BeaconTick uint64
	// Group section (see group.go): member ids this record removed, and
	// the membership epoch and stability floor where they rose.
	Removed    []uint32
	GroupEpoch uint64
	QFloor     uint64
}

// Delta record version and presence flags (bit i: flags()'s i-th field).
const recordVersion = 2

const (
	recAnchors = 1 << iota
	recDelta
	recBeacon
	recRemoved
	recEpoch
	recQFloor
)

func (d *deltaRecord) flags() (f byte) {
	for i, on := range [...]bool{d.Anchors, len(d.Delta) > 0, d.BeaconSeq > 0, len(d.Removed) > 0, d.GroupEpoch > 0, d.QFloor > 0} {
		if on {
			f |= 1 << i
		}
	}
	return f
}

// encodedSize bounds the encoding's size: every optional field counted.
func (d *deltaRecord) encodedSize() int {
	size := 2 + 8 + 8 + 8 + 32 + 4 + 4 + len(d.Delta) + 16 + 4 + 4*len(d.Removed) + 16
	for _, e := range d.Entries {
		size += vEntryMinSize + len(e.LastReply)
	}
	return size
}

func (d *deltaRecord) encodeTo(w *wire.Writer) {
	flags := d.flags()
	w.U8(recordVersion)
	w.U8(flags)
	w.U64(d.FromT)
	w.U64(d.ToT)
	w.U64(d.AdminSeq)
	w.Bytes32(d.Prev)
	encodeVMap(w, d.Entries, d.Anchors)
	if flags&recDelta != 0 {
		w.Var(d.Delta)
	}
	if flags&recBeacon != 0 {
		w.U64(d.BeaconSeq)
		w.U64(d.BeaconTick)
	}
	if flags&recRemoved != 0 {
		w.U32(uint32(len(d.Removed)))
		for _, id := range d.Removed {
			w.U32(id)
		}
	}
	if flags&recEpoch != 0 {
		w.U64(d.GroupEpoch)
	}
	if flags&recQFloor != 0 {
		w.U64(d.QFloor)
	}
}

// decodeDeltaRecord reads what encodeTo writes. Another version fails
// with ErrRecordVersion; an unknown flag, or a flagged field holding the
// value its absence means, is malformed, so every record that decodes has
// one encoding.
func decodeDeltaRecord(b []byte) (*deltaRecord, error) {
	r := wire.NewReader(b)
	if v := r.U8(); r.Err() == nil && v != recordVersion {
		return nil, fmt.Errorf("%w: %d", ErrRecordVersion, v)
	}
	flags := r.U8()
	d := &deltaRecord{FromT: r.U64(), ToT: r.U64(), AdminSeq: r.U64(), Prev: r.Bytes32(), Anchors: flags&recAnchors != 0}
	d.Entries = decodeVMap(r, d.Anchors)
	if flags&recDelta != 0 {
		d.Delta = r.Var()
	}
	if flags&recBeacon != 0 {
		d.BeaconSeq, d.BeaconTick = r.U64(), r.U64()
	}
	if flags&recRemoved != 0 {
		d.Removed = make([]uint32, r.Count(4))
		for i := range d.Removed {
			d.Removed[i] = r.U32()
		}
	}
	if flags&recEpoch != 0 {
		d.GroupEpoch = r.U64()
	}
	if flags&recQFloor != 0 {
		d.QFloor = r.U64()
	}
	if r.Err() == nil && d.flags() != flags {
		r.Fail(errors.New("delta record flags unknown or absent-valued fields"))
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode delta record: %w", err)
	}
	return d, nil
}

// migrationPayload is the plaintext the origin enclave seals to the
// migration target's channel key (Sec. 4.6.2). It carries kP and one of
// two state representations:
//
//   - Snapshot mode (ChainMode false): State is a full trustedState
//     including the service snapshot — self-contained, used when delta
//     persistence is inactive.
//   - Chain mode (ChainMode true): State carries V, kC and adminSeq but an
//     empty service snapshot. The service state travels outside the secure
//     channel, as the sealed base blob + delta log, which the (untrusted)
//     host copies to — or shares with — the target's stable storage; the
//     sealing under kP keeps that path safe. The target rebuilds the state
//     by folding its copy of the chain and accepts only if the fold ends
//     exactly at ChainPrev, so a host serving a stale or truncated copy is
//     refused rather than silently imported. Pending carries any service
//     delta not yet covered by a persisted record. The secure-channel
//     payload is thus O(V + pending) instead of O(state).
type migrationPayload struct {
	KP        []byte
	State     []byte // trustedState encoding (empty Snapshot in chain mode)
	ChainMode bool
	ChainPrev [32]byte
	Pending   []byte
}

func (m *migrationPayload) encode() []byte {
	w := wire.NewWriter(49 + len(m.KP) + len(m.State) + len(m.Pending))
	w.Var(m.KP)
	w.Var(m.State)
	w.Bool(m.ChainMode)
	w.Bytes32(m.ChainPrev)
	w.Var(m.Pending)
	return w.Bytes()
}

func decodeMigrationPayload(b []byte) (*migrationPayload, error) {
	r := wire.NewReader(b)
	m := &migrationPayload{KP: r.Var(), State: r.Var()}
	m.ChainMode = r.Bool()
	m.ChainPrev = r.Bytes32()
	m.Pending = r.Var()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode migration payload: %w", err)
	}
	return m, nil
}
