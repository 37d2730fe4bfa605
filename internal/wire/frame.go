package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Client-server frame kinds (the outermost layer on the wire, visible to
// and routed by the untrusted server).
const (
	// FrameInvoke carries an encrypted INVOKE; the response frame carries
	// the encrypted REPLY. The payload starts with a one-byte shard index
	// (see EncodeShardFrame) — 0 in unsharded deployments.
	FrameInvoke byte = iota + 1
	// FrameECall carries a raw enclave call (attestation, provisioning,
	// admin, status); the response carries the enclave's
	// response. The honest host forwards these verbatim; their security
	// rests on the inner protocol layers, never on the host. Like
	// FrameInvoke, the payload starts with a shard index byte.
	FrameECall
	// FrameStatus requests the host's aggregated deployment status: every
	// shard's enclave status plus the host-side group-commit counters,
	// in one round trip. The payload is empty; the response carries an
	// encoded core.DeploymentStatus. Purely operational — the data leaks
	// nothing the (untrusted) host does not already hold.
	FrameStatus
	// FrameMultiInvoke carries several shard-addressed INVOKEs in one
	// request — the scatter half of a cross-shard scatter-gather operation
	// (a prefix scan fanned out to every shard). The response is a single
	// frame bundling one per-part response frame per request part, in
	// request order, so the client can match replies to shards without any
	// per-frame demultiplexing on the shared connection. Each part is an
	// ordinary sealed INVOKE for its shard's context; the bundling is pure
	// untrusted transport, with no protocol meaning.
	FrameMultiInvoke
	// FrameReshardInfo requests the deployment's latest reshard handoff
	// bundle (an encoded core.ReshardInfo): the new generation and shard
	// count — untrusted routing metadata — plus one handoff ciphertext
	// per old shard, each sealed under that shard's communication key.
	// Clients verify the handoffs before adopting the new routing; the
	// host merely stores and serves them. The payload is empty.
	FrameReshardInfo
	// FrameReshardAdopted notifies the host that a client has verified
	// and adopted a reshard generation: [u64 gen][u32 clientID]. Purely
	// operational — the host garbage-collects retired generations'
	// storage namespaces once every registered client has adopted, and a
	// lying client can only hasten the host's reclamation of the host's
	// own storage, never weaken detection (which rests on the sealed
	// handoffs, not on retained storage).
	FrameReshardAdopted
	// FrameReadInvoke carries an encrypted snapshot-read request (a
	// wire.ReadInvoke sealed under the shard's kC); the response carries
	// the encrypted ReadReply. Routing header matches FrameInvoke
	// ([u8 shard][u32 gen]), but the host serves these on the receiving
	// connection's goroutine against the last durable snapshot instead of
	// queueing them behind the writer batch. The split is untrusted
	// routing: a read misrouted into the write queue fails the message
	// tag check inside the enclave, never executes as a write.
	FrameReadInvoke
	// FrameChurn carries one client-originated membership message (a
	// core.ChurnMsg sealed under the shard's kC): join, leave or
	// heartbeat. Routing header matches FrameInvoke ([u8 shard][u32 gen]).
	// The host forwards the ciphertext to the shard's enclave in a churn
	// ecall; joins and leaves are answered with the sealed ChurnAck, while
	// heartbeats elicit an empty OK response (the enclave produces no ack
	// for them). The frame is untrusted transport — a forged or replayed
	// churn ciphertext is dropped inside the enclave, never halts it.
	FrameChurn
)

// MaxShards bounds the shard index representable in the one-byte routing
// header.
const MaxShards = 256

// EncodeShardFrame builds a request frame addressed to one shard:
// [kind][u8 shard][u32 gen][payload]. The shard byte and the reshard
// generation are untrusted routing metadata for the host — the
// protocol's integrity never rests on them, because each shard's INVOKEs
// are sealed under that shard's own communication key, so a frame
// misrouted (accidentally or maliciously) to another shard fails
// authentication there. The generation exists for availability, not
// integrity: a client that has not yet adopted a live reshard would
// otherwise land its old-generation ciphertext on a new-generation
// enclave, whose (correct!) reaction to the failed authentication is a
// permanent halt. Stamping the generation lets the host answer such
// frames with a refresh error instead of routing them.
func EncodeShardFrame(kind byte, shard int, gen uint32, payload []byte) []byte {
	out := make([]byte, 6+len(payload))
	out[0] = kind
	out[1] = byte(shard)
	binary.BigEndian.PutUint32(out[2:6], gen)
	copy(out[6:], payload)
	return out
}

// SplitShardPayload splits a shard-addressed frame payload (everything
// after the kind byte) into the shard index, the sender's reshard
// generation and the inner payload.
func SplitShardPayload(payload []byte) (shard int, gen uint32, inner []byte, err error) {
	if len(payload) < 5 {
		return 0, 0, nil, errors.New("wire: shard frame missing routing header")
	}
	return int(payload[0]), binary.BigEndian.Uint32(payload[1:5]), payload[5:], nil
}

// ShardPart is one shard-addressed payload of a multi-shard frame.
type ShardPart struct {
	Shard   int
	Payload []byte
}

// EncodeMultiShardFrame builds a FrameMultiInvoke request carrying one
// sealed INVOKE per part:
// [kind][u32 gen][u16 count]([u8 shard][var payload])*.
// The count is two bytes so a fan-out over the full MaxShards (256)
// shard space still encodes. Like the single-shard routing header, the
// generation and shard indices are untrusted metadata — a misrouted part
// fails authentication at the receiving shard's context, and the
// generation only exists so a stale client's fan-out is answered with a
// refresh error instead of being routed (see EncodeShardFrame).
func EncodeMultiShardFrame(gen uint32, parts []ShardPart) []byte {
	size := 7
	for _, p := range parts {
		size += 1 + 4 + len(p.Payload)
	}
	w := NewWriter(size)
	w.U8(FrameMultiInvoke)
	w.U32(gen)
	w.U16(uint16(len(parts)))
	for _, p := range parts {
		w.U8(byte(p.Shard))
		w.Var(p.Payload)
	}
	return w.Bytes()
}

// DecodeMultiShardParts parses a FrameMultiInvoke payload (everything
// after the kind byte) into the sender's generation and its
// shard-addressed parts. The untrusted count reserves no more parts than
// the payload can hold (each takes at least 5 bytes).
func DecodeMultiShardParts(payload []byte) (uint32, []ShardPart, error) {
	r := NewReader(payload)
	gen := r.U32()
	n := int(r.U16())
	parts := make([]ShardPart, 0, min(n, r.Remaining()/5))
	for i := 0; i < n && r.Err() == nil; i++ {
		shard := int(r.U8())
		inner := r.Var()
		parts = append(parts, ShardPart{Shard: shard, Payload: inner})
	}
	if err := r.Done(); err != nil {
		return 0, nil, fmt.Errorf("wire: decode multi-shard frame: %w", err)
	}
	return gen, parts, nil
}

// EncodeMultiResponse bundles per-part response frames (each an OKFrame or
// ErrorFrame) into the payload of the single response to a multi-shard
// request: [u16 count](var responseFrame)*. Part order matches the
// request.
func EncodeMultiResponse(parts [][]byte) []byte {
	size := 2
	for _, p := range parts {
		size += 4 + len(p)
	}
	w := NewWriter(size)
	w.U16(uint16(len(parts)))
	for _, p := range parts {
		w.Var(p)
	}
	return w.Bytes()
}

// DecodeMultiResponse splits a multi-response payload back into the
// per-part response frames, to be decoded individually with
// DecodeResponse — so one halted shard yields an error part while the
// other parts still carry verifiable replies. Like DecodeMultiShardParts,
// it bounds the reservation by the payload (a part is at least 4 bytes).
func DecodeMultiResponse(payload []byte) ([][]byte, error) {
	r := NewReader(payload)
	n := int(r.U16())
	parts := make([][]byte, 0, min(n, r.Remaining()/4))
	for i := 0; i < n && r.Err() == nil; i++ {
		parts = append(parts, r.Var())
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wire: decode multi-shard response: %w", err)
	}
	return parts, nil
}

// Response status codes.
const (
	StatusOK byte = iota
	StatusError
)

// EncodeFrame builds a request frame.
func EncodeFrame(kind byte, payload []byte) []byte {
	out := make([]byte, 1+len(payload))
	out[0] = kind
	copy(out[1:], payload)
	return out
}

// DecodeFrame splits a request frame.
func DecodeFrame(frame []byte) (kind byte, payload []byte, err error) {
	if len(frame) == 0 {
		return 0, nil, errors.New("wire: empty frame")
	}
	return frame[0], frame[1:], nil
}

// OKFrame builds a success response frame.
func OKFrame(payload []byte) []byte {
	out := make([]byte, 1+len(payload))
	out[0] = StatusOK
	copy(out[1:], payload)
	return out
}

// ErrorFrame builds an error response frame carrying the error text.
func ErrorFrame(err error) []byte {
	msg := err.Error()
	out := make([]byte, 1+len(msg))
	out[0] = StatusError
	copy(out[1:], msg)
	return out
}

// DecodeResponse splits a response frame into payload or error.
func DecodeResponse(frame []byte) ([]byte, error) {
	if len(frame) == 0 {
		return nil, errors.New("wire: empty response frame")
	}
	switch frame[0] {
	case StatusOK:
		return frame[1:], nil
	case StatusError:
		return nil, fmt.Errorf("wire: server error: %s", frame[1:])
	default:
		return nil, fmt.Errorf("wire: bad response status %d", frame[0])
	}
}
