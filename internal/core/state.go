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
// Version 2 dropped a U32 after QFloor; version 3 keeps cached replies as
// their inputs (below). A blob of version 1 or 2 fails with
// ErrStateVersion.
//
// # V entries and cached replies
//
// V encodes an entry as U32 id, [U64 TA, Bytes32 HA], U64 T, Bytes32 H,
// Var Reply (a record's entry adds a form, below). Reply (cachedReply) is
// empty or what the entry does not hold of its last REPLY seal:
//
//	[12]byte nonce ‖ [16]byte GCM tag ‖ U64 Q ‖ U64 BeaconSeq ‖ result
//
// The reply's T, H and HCPrev are the entry's T, H and HA. A retry and a
// reshard handoff re-derive the ciphertext with aead.Reseal, which seals
// under the stored nonce and returns the bytes only if its tag equals the
// stored one. GCM is deterministic, so a match is the ciphertext first
// sent, byte for byte; any other plaintext would be a second message
// under a used nonce, and the context halts instead of releasing it.
// Version 4 kept the ciphertext: 77 bytes more per entry.
//
// # Delta record layout
//
// Each record's plaintext (version 6) is:
//
//	U8       version      recordVersion
//	U8       flags        which optional fields [..] follow
//	U64      ToT          t after the batch
//	U32      n            number of touched V entries
//	n ×      V entry      U32 id, U8 form, [TA, HA] only under recAnchors,
//	                      then the rest of a V entry as above, by form
//	[Var     ServiceDelta]  service.DeltaService.Delta() output
//	[U64     BeaconSeq, U64 BeaconTick]
//	[U32 m, m × U32 id]     members this record removed from the group
//	[U64     GroupEpoch]    membership epoch (group.go)
//	[U64     QFloor]        monotone stability floor
//
// sealed under kP with its chain position as associated data (recordAD),
// adDeltaLog ‖ Bytes32 Prev ‖ U64 FromT ‖ U64 AdminSeq. Prev is the SHA-256
// of the predecessor ciphertext (or the blob's Head), FromT is t before
// the batch. None of the three is written: the fold builds the associated
// data from its own (chainPrev, t, adminSeq), so a record opens only at
// the exact position it was sealed for. A record spliced in, replayed,
// reordered or from before an admin re-seal fails authentication, and
// recovery halts.
//
// An entry keeps its result, as V does, unless its op is a read
// (service.SnapshotReader.IsReadOnly) that ran before any write in the
// batch: then Reply ends with the op (entryRead), and if it was the
// batch's first op, T and H are not written (entryFirstRead). The fold
// (rerun) runs the op on the state before the record's ServiceDelta, the
// state it ran on, and derives T = FromT+1 and H = hashchain.Extend(h,
// op, T, id). Writes are never re-run. A read whose result does not
// depend only on the state rebuilds another result, whose re-seal on a
// retry fails the stored tag: the context halts rather than send a second
// plaintext under a used nonce.
//
// An optional field is written only when the fold (applyRecord) cannot
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
// Old data fails by name, with no in-place migration: a record of
// versions 1 to 5 with ErrRecordVersion (docs/ARCHITECTURE.md §2 says
// what each changed), a log segment without stablestore.LogHeader with
// its ErrLogVersion.
//
// # Chaining and checkpoints
//
// The chain runs across segments in segment order and never restarts.
// The batch that takes the chain's sealed bytes past CompactRatio times
// the last snapshot's size (within CompactMinRecords and
// CompactMaxRecords records) appends its record, then cuts: it freezes V,
// the group and beacon state, the head h_S at its sequence S and a view
// of the service (service.Freezer, or Snapshot), and later records go to
// the next segment. The host seals the frozen state off the request path,
// stores it once S is durable, and drops the segments below it. Recovery
// folds the blob's segment and every later one that holds records; the
// cut record closed the segment before, so none of them holds a record at
// or before S. Inline seals write the blob at once, with the current
// head, in a new segment unless the current one is empty. Making records
// durable (group commit) is the host's job. docs/ARCHITECTURE.md §2 gives
// both, and the rollback argument row by row.

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

// recordAD is a delta record's associated data (see the layout above).
type recordAD [len(adDeltaLog) + 32 + 8 + 8]byte

// at fills ad with the chain position (prev, fromT, adminSeq).
func (ad *recordAD) at(prev [32]byte, fromT, adminSeq uint64) []byte {
	copy(ad[copy(ad[:], adDeltaLog):], prev[:])
	binary.BigEndian.PutUint64(ad[len(adDeltaLog)+32:], fromT)
	binary.BigEndian.PutUint64(ad[len(adDeltaLog)+40:], adminSeq)
	return ad[:]
}

// SegmentSlot names log segment seg; segment 0 is SlotDeltaLog.
func SegmentSlot(seg uint64) string {
	if seg == 0 {
		return SlotDeltaLog
	}
	return SlotDeltaLog + "." + strconv.FormatUint(seg, 10)
}

// State blob header (see the layout above).
const (
	stateVersion    = 3
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
	// stability floor, the eviction tombstones and counter, and the
	// authoritative sequence head.
	GroupEpoch uint64
	QFloor     uint64
	Evicted    []uint32
	Evictions  uint64
	SeqT       uint64
	SeqH       hashchain.Value
	// Head is the chain value the first record after this blob links to
	// (the hash of the cut's record, or the head at an inline seal).
	Head [32]byte
}

func (s *trustedState) encodedSize() int {
	size := 56 + len(s.KC) + len(s.Snapshot) + 36 + hashchain.Size + 32 + 4*len(s.Evicted)
	for _, e := range s.V {
		size += vEntryMinSize + len(e.Reply)
	}
	return size
}

// vEntryMinSize is an encoded V entry's size with no cached reply;
// anchorSize is the part that is its (TA, HA).
const (
	vEntryMinSize = 4 + 8 + 8 + 2*hashchain.Size + 4
	anchorSize    = 8 + hashchain.Size
)

// A record entry's form (version 6): what its Reply ends with, and
// whether its T and H are written.
const (
	entryResult    byte = iota // the result; T and H written
	entryRead                  // a read's op, which the fold re-runs
	entryFirstRead             // the same, of the batch's first op: no T, H
)

// readOp is the op a record entry keeps in place of its result.
type readOp struct {
	op   []byte
	form byte
}

// encodeVMap writes v count-prefixed, in ascending id order, each entry's
// (TA, HA) only when anchors is set. In a record each entry's form
// follows its id, and an entry in reads ends its Reply with the op.
func encodeVMap(w *wire.Writer, v vmap, anchors, record bool, reads map[uint32]readOp) {
	w.U32(uint32(len(v)))
	for _, id := range v.clientIDs() {
		e := v[id]
		w.U32(id)
		read := reads[id] // entryResult if absent
		if record {
			w.U8(read.form)
		}
		if anchors {
			w.U64(e.TA)
			w.Bytes32(e.HA)
		}
		if read.form != entryFirstRead {
			w.U64(e.T)
			w.Bytes32(e.H)
		}
		if read.form == entryResult {
			w.Var(e.Reply)
		} else {
			w.Var(append(e.Reply[:cachedReplyMin:cachedReplyMin], read.op...))
		}
	}
}

// decodeVMap reads what encodeVMap writes. Any other entry order, a
// repeated id, an unknown form or a second first op is malformed, so
// every V that decodes has one encoding.
func decodeVMap(r *wire.Reader, anchors, record bool) (vmap, map[uint32]readOp) {
	n := r.Count(vEntryMinSize - 2*anchorSize) // no (TA, HA) or (T, H)
	v := make(vmap, n)
	var reads map[uint32]readOp
	for i, prev, first := 0, int64(-1), false; i < n; i++ {
		id := r.U32()
		if int64(id) <= prev {
			r.Fail(errors.New("V entries not in ascending id order"))
		}
		prev = int64(id)
		form := entryResult
		if record {
			form = r.U8()
		}
		e := &ventry{}
		if anchors {
			e.TA, e.HA = r.U64(), r.Bytes32()
		}
		if form != entryFirstRead {
			e.T, e.H = r.U64(), r.Bytes32()
		}
		switch e.Reply = r.Var(); {
		case form > entryFirstRead:
			r.Fail(fmt.Errorf("V entry form %d unknown", form))
		case form == entryFirstRead && first:
			r.Fail(errors.New("two V entries of the batch's first op"))
		case len(e.Reply) == 0 && form == entryResult:
			e.Reply = nil
		case len(e.Reply) < cachedReplyMin:
			r.Fail(errors.New("V entry's cached reply too short"))
		case form != entryResult:
			if reads == nil {
				reads = make(map[uint32]readOp)
			}
			reads[id] = readOp{op: e.Reply[cachedReplyMin:], form: form}
			first = first || form == entryFirstRead
		}
		v[id] = e
	}
	return v, reads
}

func (s *trustedState) encodeTo(w *wire.Writer) {
	w.U64(s.AdminSeq)
	w.U64(s.Gen)
	w.Var(s.KC)
	encodeVMap(w, s.V, true, false, nil)
	w.Var(s.Snapshot)
	w.U64(s.BeaconSeq)
	w.U64(s.BeaconTick)
	w.U64(s.GroupEpoch)
	w.U64(s.QFloor)
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
	s := &trustedState{AdminSeq: r.U64(), Gen: r.U64(), KC: r.Var()}
	s.V, _ = decodeVMap(r, true, false)
	s.Snapshot = r.VarView() // aliases b; Restore copies what it keeps
	s.BeaconSeq = r.U64()
	s.BeaconTick = r.U64()
	s.GroupEpoch = r.U64()
	s.QFloor = r.U64()
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

// deltaRecord is one delta-log record: the batch's sequence range, the V
// entries it touched, and the service delta (see the package docs above).
// FromT is sealed into the associated data (recordAD), not encoded. An
// optional field is absent when zero, empty or false.
type deltaRecord struct {
	FromT   uint64
	ToT     uint64
	Entries vmap
	Anchors bool // the entries carry their (TA, HA)
	// Reads holds the entries that keep their read's op, not its result.
	Reads map[uint32]readOp
	Delta []byte
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
const recordVersion = 6

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
	size := 2 + 8 + 4 + 4 + len(d.Delta) + 16 + 4 + 4*len(d.Removed) + 16
	for id, e := range d.Entries {
		size += vEntryMinSize + 1 + len(e.Reply) + len(d.Reads[id].op)
	}
	return size
}

func (d *deltaRecord) encodeTo(w *wire.Writer) {
	flags := d.flags()
	w.U8(recordVersion)
	w.U8(flags)
	w.U64(d.ToT)
	encodeVMap(w, d.Entries, d.Anchors, true, d.Reads)
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
	d := &deltaRecord{ToT: r.U64(), Anchors: flags&recAnchors != 0}
	d.Entries, d.Reads = decodeVMap(r, d.Anchors, true)
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
