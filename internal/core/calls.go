package core

import (
	"errors"
	"fmt"

	"lcm/internal/tee"
	"lcm/internal/wire"
)

// Enclave-call kinds. These payloads cross the host/enclave boundary (the
// ecall interface of Sec. 5.1); their sensitive contents are protected by
// inner encryption layers, never by the framing itself.
const (
	callBatch byte = iota + 1
	callAttest
	callProvision
	callAdmin
	// Kinds 5 to 7 are retired; the later kinds keep their values.
	callStatus byte = iota + 4
	// Reshard calls (appended in order — the values are part of the ecall
	// ABI). See reshard.go for the protocol.
	callReshardChallenge
	callReshardBegin
	callReshardPrepare
	callReshardExport
	callReshardImport
	callReshardAbort
	// callChainSync folds a chain suffix fetched from a replica peer after
	// a restart found the local delta log stale (see heal.go).
	callChainSync
	// callRecover provisions the state key into a fresh enclave over an
	// attested admin channel, re-animating a deployment whose original
	// platform (and thus sealing key) is gone (see heal.go).
	callRecover
	// callEnableReads arms the concurrent snapshot-read path (see read.go).
	// The host sends it once per enclave instance, before serving.
	callEnableReads
	// callAdvanceDurable tells the enclave that every batch up to the given
	// sequence number has reached stable storage; the enclave publishes
	// that prefix to the snapshot readers (see read.go).
	callAdvanceDurable
	// callBeacon asks the trusted context to commit one heartbeat beacon
	// record onto its sealed chain after checking the platform counter for
	// foreign increments — the clone-detection protocol of trusted.go.
	callBeacon
	// callBeaconConfirm tells the enclave the beacon record it just sealed
	// is durable; the enclave claims the reserved counter tick by
	// incrementing the platform counter.
	callBeaconConfirm
	// callEpochSeal advances the membership epoch: the trusted context
	// fences the new epoch number with the platform counter, applies staged
	// and heartbeat-expired evictions (rotating kC when any fire) (see
	// group.go/churn.go).
	callEpochSeal
	// callChurn delivers a batch of client-originated membership messages
	// (join/leave/heartbeat), each sealed under kC (see churn.go).
	callChurn
	// callGroupInfo returns the group's membership view sealed under kP —
	// the admin's window onto epoch, evictions, members and the current
	// kC (see churn.go).
	callGroupInfo
	// callCheckpoint seals a frozen checkpoint (see cut in trusted.go).
	callCheckpoint
)

// EncodeCheckpointCall builds the call that seals the checkpoint starting
// segment seg; it answers with the blob, or ErrNoCheckpoint if superseded.
func EncodeCheckpointCall(seg uint64) []byte {
	w := wire.NewWriter(9)
	w.U8(callCheckpoint)
	w.U64(seg)
	return w.Bytes()
}

// BatchCallSize returns the encoded size of a batch call, for writer
// preallocation.
func BatchCallSize(invokes [][]byte) int {
	size := 5
	for _, in := range invokes {
		size += 4 + len(in)
	}
	return size
}

// AppendBatchCall encodes a batch call into w, allowing hot paths (the
// host's batch ecall) to reuse one buffer across batches.
func AppendBatchCall(w *wire.Writer, invokes [][]byte) {
	w.U8(callBatch)
	w.U32(uint32(len(invokes)))
	for _, in := range invokes {
		w.Var(in)
	}
}

// EncodeBatchCall frames a batch of encrypted INVOKE messages for a single
// ecall — the request-batching optimization of Sec. 5.2, which amortizes
// the enclave transition and the per-batch state sealing.
func EncodeBatchCall(invokes [][]byte) []byte {
	w := wire.NewWriter(BatchCallSize(invokes))
	AppendBatchCall(w, invokes)
	return w.Bytes()
}

func decodeBatchCall(r *wire.Reader) ([][]byte, error) {
	n := r.U32()
	invokes := make([][]byte, 0, n)
	for i := uint32(0); i < n; i++ {
		invokes = append(invokes, r.Var())
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode batch call: %w", err)
	}
	return invokes, nil
}

// DecodeBatchCall parses a full batch-call payload (as produced by
// EncodeBatchCall). It is exported for enclave programs that share the
// host's batching framing, such as the SGX baseline of Sec. 6.
func DecodeBatchCall(payload []byte) ([][]byte, error) {
	if len(payload) == 0 || payload[0] != callBatch {
		return nil, errors.New("lcm: not a batch call")
	}
	return decodeBatchCall(wire.NewReader(payload[1:]))
}

// IsBatchCall reports whether an ecall payload is a batch call.
func IsBatchCall(payload []byte) bool {
	return len(payload) > 0 && payload[0] == callBatch
}

// BatchResult is the enclave's response to a batch call: one encrypted
// REPLY per invoke, in order, plus the persistence work the host must
// perform before releasing the replies (piggybacked on the response
// instead of an ocall, Sec. 5.2). At most one of StateBlob / DeltaRecord
// is set:
//
//   - StateBlob — a full sealed snapshot, sealed inline; the host stores
//     it under the state slot, then drops the log segments below Seg.
//   - DeltaRecord — one sealed delta-log record; the host appends it to
//     segment Seg. With Cut set the record closed its segment and the
//     enclave froze a checkpoint at Seq: the host seals it in the
//     background (EncodeCheckpointCall) and stores it once Seq is durable.
type BatchResult struct {
	Replies     [][]byte
	StateBlob   []byte
	DeltaRecord []byte
	Cut         bool
	Seg         uint64
	// Seq is the trusted context's sequence number after this batch — the
	// value the host reports back through EncodeAdvanceDurableCall once
	// the batch's persistence record is durable.
	Seq uint64
	// Beacon marks the result of a callBeacon: the record carries a
	// heartbeat beacon, and once it is durable the host must issue
	// EncodeBeaconConfirmCall so the enclave claims the reserved counter
	// tick.
	Beacon bool
}

// Encode serializes a batch result; the inverse of DecodeBatchResult.
func (res *BatchResult) Encode() []byte { return encodeBatchResult(res) }

func encodeBatchResult(res *BatchResult) []byte {
	size := 30 + len(res.StateBlob) + len(res.DeltaRecord)
	for _, rep := range res.Replies {
		size += 4 + len(rep)
	}
	w := wire.NewWriter(size)
	w.U32(uint32(len(res.Replies)))
	for _, rep := range res.Replies {
		w.Var(rep)
	}
	w.Bool(res.Cut)
	w.U64(res.Seg)
	w.Var(res.StateBlob)
	w.Var(res.DeltaRecord)
	w.U64(res.Seq)
	w.Bool(res.Beacon)
	return w.Bytes()
}

// DecodeBatchResult parses the enclave's batch response (host side). The
// replies, the blob and the record alias b, which an ecall allocates
// afresh for every response: the caller must not reuse b.
func DecodeBatchResult(b []byte) (*BatchResult, error) {
	r := wire.NewReader(b)
	n := r.Count(4)
	res := &BatchResult{Replies: make([][]byte, 0, n)}
	for i := 0; i < n; i++ {
		res.Replies = append(res.Replies, r.VarView())
	}
	res.Cut = r.Bool()
	res.Seg = r.U64()
	res.StateBlob = r.VarView()
	res.DeltaRecord = r.VarView()
	res.Seq = r.U64()
	res.Beacon = r.Bool()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode batch result: %w", err)
	}
	return res, nil
}

// EncodeAttestCall requests a quote for the verifier's nonce. The enclave
// answers with a quote whose user data is its secure-channel public key.
func EncodeAttestCall(nonce []byte) []byte {
	w := wire.NewWriter(5 + len(nonce))
	w.U8(callAttest)
	w.Var(nonce)
	return w.Bytes()
}

func encodeQuote(q *tee.Quote) []byte {
	w := wire.NewWriter(64 + len(q.Nonce) + len(q.UserData) + len(q.MAC))
	w.Var([]byte(q.PlatformID))
	w.Bytes32(q.Measurement)
	w.Var(q.Nonce)
	w.Var(q.UserData)
	w.Var(q.MAC)
	return w.Bytes()
}

// DecodeQuote parses an encoded quote (verifier side).
func DecodeQuote(b []byte) (*tee.Quote, error) {
	r := wire.NewReader(b)
	q := &tee.Quote{}
	q.PlatformID = string(r.Var())
	q.Measurement = tee.Measurement(r.Bytes32())
	q.Nonce = r.Var()
	q.UserData = r.Var()
	q.MAC = r.Var()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode quote: %w", err)
	}
	return q, nil
}

// EncodeProvisionCall carries the admin's key injection: the admin's
// ephemeral public key and a secure-channel ciphertext containing kP, kC
// and the client group (Sec. 4.3, phase 3).
func EncodeProvisionCall(senderPub, ciphertext []byte) []byte {
	w := wire.NewWriter(9 + len(senderPub) + len(ciphertext))
	w.U8(callProvision)
	w.Var(senderPub)
	w.Var(ciphertext)
	return w.Bytes()
}

// provisionPayload is the plaintext inside the provisioning ciphertext.
type provisionPayload struct {
	KP      []byte
	KC      []byte
	Clients []uint32
}

func (p *provisionPayload) encode() []byte {
	w := wire.NewWriter(16 + len(p.KP) + len(p.KC) + 4*len(p.Clients))
	w.Var(p.KP)
	w.Var(p.KC)
	w.U32(uint32(len(p.Clients)))
	for _, id := range p.Clients {
		w.U32(id)
	}
	return w.Bytes()
}

func decodeProvisionPayload(b []byte) (*provisionPayload, error) {
	r := wire.NewReader(b)
	p := &provisionPayload{KP: r.Var(), KC: r.Var()}
	n := r.U32()
	for i := uint32(0); i < n; i++ {
		p.Clients = append(p.Clients, r.U32())
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode provision payload: %w", err)
	}
	return p, nil
}

// Admin operation kinds (Sec. 4.6.3): add admits a client, leave
// tombstones one without rotating kC, and evict stages a kC-cutting
// removal for the next epoch seal.
const (
	adminAddClient byte = iota + 1
	adminLeaveClient
	adminEvictClient
)

// AdminOp is a group-membership change.
type AdminOp struct {
	Seq      uint64 // strictly increasing; replay protection
	Kind     byte
	ClientID uint32
}

func (op *AdminOp) encode() []byte {
	w := wire.NewWriter(13)
	w.U64(op.Seq)
	w.U8(op.Kind)
	w.U32(op.ClientID)
	return w.Bytes()
}

func decodeAdminOp(b []byte) (*AdminOp, error) {
	r := wire.NewReader(b)
	op := &AdminOp{
		Seq:      r.U64(),
		Kind:     r.U8(),
		ClientID: r.U32(),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode admin op: %w", err)
	}
	return op, nil
}

// EncodeAdminCall frames an encrypted admin operation (sealed under kP).
func EncodeAdminCall(ciphertext []byte) []byte {
	w := wire.NewWriter(5 + len(ciphertext))
	w.U8(callAdmin)
	w.Var(ciphertext)
	return w.Bytes()
}

// EncodeEnableReadsCall arms the concurrent snapshot-read path. The host
// sends it through the persistence barrier before an instance's first
// snapshot read (at start, or lazily after a restart); from then on the
// service records undo pre-images for snapshot readers (see read.go).
func EncodeEnableReadsCall() []byte {
	return []byte{callEnableReads}
}

// EncodeAdvanceDurableCall reports that all batches with sequence numbers
// ≤ seq are durable on stable storage. The host sends it after a
// persistence write completes and BEFORE releasing the covered replies,
// which is what gives snapshot reads read-your-writes.
func EncodeAdvanceDurableCall(seq uint64) []byte {
	w := wire.NewWriter(9)
	w.U8(callAdvanceDurable)
	w.U64(seq)
	return w.Bytes()
}

// EncodeBeaconCall asks the trusted context to commit a heartbeat beacon
// record (see trusted.go). The result is a BatchResult with no replies and
// Beacon set; the host persists the record through the ordinary
// group-commit path and then confirms durability.
func EncodeBeaconCall() []byte {
	return []byte{callBeacon}
}

// EncodeBeaconConfirmCall reports that the last beacon record is durable.
// The enclave increments the platform counter to claim the tick the beacon
// reserved; a mismatch means another live instance raced it and the
// context halts with ErrCloneDetected.
func EncodeBeaconConfirmCall() []byte {
	return []byte{callBeaconConfirm}
}

// EncodeStatusCall requests the trusted context's public status.
func EncodeStatusCall() []byte {
	return []byte{callStatus}
}

// Status describes a trusted context's externally visible state. It leaks
// nothing beyond what the (untrusted) host can infer anyway from message
// counts.
type Status struct {
	Provisioned bool
	Retired     bool // the context exported its state (a reshard or a migration) and stopped
	Epoch       uint64
	Seq         uint64 // t: last assigned sequence number
	Stable      uint64 // q: latest majority-stable sequence number
	AdminSeq    uint64
	NumClients  int
	Gen         uint64 // reshard generation this context belongs to
	Resharding  bool   // frozen mid-reshard (between prepare and export)

	// Persistence observability: the delta chain since the last
	// checkpoint and the checkpoint history (see state.go).
	DeltaActive    bool   // batches persist as delta records, not full seals
	ChainLen       int    // records since the last checkpoint cut or blob
	ChainBytes     int    // sealed bytes of those records
	SnapshotBytes  int    // size of the last sealed full snapshot
	Compactions    uint64 // checkpoint cuts, and inline seals after a non-empty chain
	LastCompactSeq uint64 // t at the most recent one

	// BeaconSeq counts the heartbeat beacon records this context has
	// committed (0 when beacons are off); see trusted.go.
	BeaconSeq uint64

	// Group observability (see group.go): the membership epoch, the
	// clients that invoked in this or the previous epoch, and how many
	// members epoch seals have evicted.
	GroupEpoch    uint64
	ActiveClients uint32
	Evictions     uint64
}

func encodeStatus(s *Status) []byte {
	w := wire.NewWriter(112)
	w.Bool(s.Provisioned)
	w.Bool(s.Retired)
	w.U64(s.Epoch)
	w.U64(s.Seq)
	w.U64(s.Stable)
	w.U64(s.AdminSeq)
	w.U32(uint32(s.NumClients))
	w.U64(s.Gen)
	w.Bool(s.Resharding)
	w.Bool(s.DeltaActive)
	w.U32(uint32(s.ChainLen))
	w.U64(uint64(s.ChainBytes))
	w.U64(uint64(s.SnapshotBytes))
	w.U64(s.Compactions)
	w.U64(s.LastCompactSeq)
	w.U64(s.BeaconSeq)
	w.U64(s.GroupEpoch)
	w.U32(s.ActiveClients)
	w.U64(s.Evictions)
	return w.Bytes()
}

// ShardStatus pairs one shard's trusted-context status with the host-side
// counters for that shard: how many enclave instances currently serve it
// (more than one means a fork is mounted) and the shard committer's
// group-commit activity. A shard whose enclave cannot answer — typically
// because it halted after detecting a violation — reports the failure in
// Err with a zero Status, so the endpoint stays usable exactly when an
// attack has been caught.
type ShardStatus struct {
	Shard     int
	Instances int
	Groups    int    // commit groups written for this shard
	Records   int    // batch results those groups covered
	MaxGroup  int    // largest single group
	Err       string // why the shard's status ecall failed ("" = healthy)
	Status    Status

	// Replication observability (zero when the shard runs unreplicated):
	// the replica-set size including the primary, the configured write
	// quorum, how many peers currently answer, and how many times the
	// shard healed a stale local chain from a peer suffix.
	Replicas     int
	Quorum       int
	ReplicasLive int
	Heals        int
}

// DeploymentStatus is the host's aggregated operational view: one entry
// per shard, answered by the FrameStatus endpoint in a single round trip.
// Gen is the deployment's reshard generation (0 until the first live
// reshard); the entries describe the current generation's shards.
type DeploymentStatus struct {
	Gen    uint64
	Shards []ShardStatus
}

// TotalSeq sums the shards' sequence numbers — the deployment-wide count
// of executed operations.
func (d *DeploymentStatus) TotalSeq() uint64 {
	var total uint64
	for _, s := range d.Shards {
		total += s.Status.Seq
	}
	return total
}

// GroupCommitTotals aggregates the per-shard committer counters.
func (d *DeploymentStatus) GroupCommitTotals() (groups, records, maxGroup int) {
	for _, s := range d.Shards {
		groups += s.Groups
		records += s.Records
		if s.MaxGroup > maxGroup {
			maxGroup = s.MaxGroup
		}
	}
	return groups, records, maxGroup
}

// EncodeDeploymentStatus serializes a deployment status response.
func EncodeDeploymentStatus(d *DeploymentStatus) []byte {
	w := wire.NewWriter(12 + len(d.Shards)*112)
	w.U64(d.Gen)
	w.U32(uint32(len(d.Shards)))
	for i := range d.Shards {
		s := &d.Shards[i]
		w.U32(uint32(s.Shard))
		w.U32(uint32(s.Instances))
		w.U64(uint64(s.Groups))
		w.U64(uint64(s.Records))
		w.U64(uint64(s.MaxGroup))
		w.Var([]byte(s.Err))
		inner := encodeStatus(&s.Status)
		w.Var(inner)
		w.U32(uint32(s.Replicas))
		w.U32(uint32(s.Quorum))
		w.U32(uint32(s.ReplicasLive))
		w.U32(uint32(s.Heals))
	}
	return w.Bytes()
}

// DecodeDeploymentStatus parses a deployment status response.
func DecodeDeploymentStatus(b []byte) (*DeploymentStatus, error) {
	r := wire.NewReader(b)
	d := &DeploymentStatus{Gen: r.U64()}
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		s := ShardStatus{
			Shard:     int(r.U32()),
			Instances: int(r.U32()),
			Groups:    int(r.U64()),
			Records:   int(r.U64()),
			MaxGroup:  int(r.U64()),
		}
		s.Err = string(r.Var())
		inner := r.Var()
		if r.Err() == nil {
			st, err := DecodeStatus(inner)
			if err != nil {
				return nil, fmt.Errorf("lcm: decode deployment status shard %d: %w", s.Shard, err)
			}
			s.Status = *st
		}
		s.Replicas = int(r.U32())
		s.Quorum = int(r.U32())
		s.ReplicasLive = int(r.U32())
		s.Heals = int(r.U32())
		d.Shards = append(d.Shards, s)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode deployment status: %w", err)
	}
	return d, nil
}

// DecodeStatus parses a status response.
func DecodeStatus(b []byte) (*Status, error) {
	r := wire.NewReader(b)
	s := &Status{
		Provisioned: r.Bool(),
		Retired:     r.Bool(),
		Epoch:       r.U64(),
		Seq:         r.U64(),
		Stable:      r.U64(),
		AdminSeq:    r.U64(),
	}
	s.NumClients = int(r.U32())
	s.Gen = r.U64()
	s.Resharding = r.Bool()
	s.DeltaActive = r.Bool()
	s.ChainLen = int(r.U32())
	s.ChainBytes = int(r.U64())
	s.SnapshotBytes = int(r.U64())
	s.Compactions = r.U64()
	s.LastCompactSeq = r.U64()
	s.BeaconSeq = r.U64()
	s.GroupEpoch = r.U64()
	s.ActiveClients = r.U32()
	s.Evictions = r.U64()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode status: %w", err)
	}
	return s, nil
}
