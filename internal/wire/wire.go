// Package wire defines the binary encoding of all LCM protocol messages.
//
// The encodings are deliberately simple and deterministic: fixed-width
// big-endian integers and length-prefixed byte strings. Determinism matters
// because sealed state blobs and protocol messages are authenticated; the
// same logical value must always serialize to the same bytes.
//
// The metadata LCM adds to a client request (Sec. 6.3) is exactly the
// fields of Alg. 1's INVOKE beyond the operation itself: the client
// identifier (4 bytes), the last sequence number tc (8 bytes), the last
// hash-chain value hc (32 bytes) and the retry marker (1 byte) — 45 bytes,
// matching the paper's reported constant invoke overhead.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"lcm/internal/hashchain"
)

// Message type tags. Tags start at one so that a zero byte is never a
// valid message.
const (
	TagInvoke byte = iota + 1
	TagReply
	TagProvision
	TagStateExport
	TagAdmin
	TagReadInvoke
	TagReadReply
)

// InvokeOverhead is the constant number of metadata bytes an encoded
// INVOKE carries beyond the operation payload (type tag excluded, as in
// the paper's accounting).
const InvokeOverhead = 4 + 8 + hashchain.Size + 1

// ReplyOverhead is the constant metadata overhead of an encoded REPLY
// beyond the result payload: t (8) + h (32) + q (8) + h'c (32) + beacon
// ordinal (8).
//
// The paper's optimized C++ implementation reports 46 bytes here; our
// encoding carries the pseudocode's full [t, h, q, h'c] tuple (plus the
// clone-freshness beacon ordinal) and is therefore larger, but equally
// constant in the object size, which is the property Fig. 4 depends on.
const ReplyOverhead = 8 + hashchain.Size + 8 + hashchain.Size + 8

// ErrTruncated reports a message shorter than its fields require.
var ErrTruncated = errors.New("wire: truncated message")

// ErrBadTag reports an unexpected message type tag.
type ErrBadTag struct {
	Got  byte
	Want byte
}

func (e *ErrBadTag) Error() string {
	return fmt.Sprintf("wire: bad message tag %d, want %d", e.Got, e.Want)
}

// Writer accumulates a message. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity preallocated for n bytes.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// Bytes returns the encoded message.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes encoded so far.
func (w *Writer) Len() int { return len(w.buf) }

// Reset discards the accumulated message but keeps the underlying buffer,
// so a long-lived Writer on a hot path reaches a steady state with zero
// allocations per message.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// Grow ensures capacity for at least n more bytes.
func (w *Writer) Grow(n int) {
	if cap(w.buf)-len(w.buf) < n {
		next := make([]byte, len(w.buf), len(w.buf)+n)
		copy(next, w.buf)
		w.buf = next
	}
}

// maxPooledCap bounds the buffers the writer pool retains, so one huge
// message (e.g. a full-state seal of a large store) does not pin memory
// forever.
const maxPooledCap = 1 << 20

var writerPool = sync.Pool{New: func() any { return new(Writer) }}

// GetWriter returns a pooled Writer with capacity for at least n bytes.
// Callers must not retain the returned Bytes() after PutWriter: copy them
// (AEAD sealing and frame sending both do) before releasing.
func GetWriter(n int) *Writer {
	w := writerPool.Get().(*Writer)
	w.Reset()
	w.Grow(n)
	return w
}

// PutWriter returns a Writer obtained from GetWriter to the pool.
func PutWriter(w *Writer) {
	if cap(w.buf) <= maxPooledCap {
		writerPool.Put(w)
	}
}

// Pad appends n zero bytes: headroom a later in-place step fills (the
// nonce of aead.SealInPlace).
func (w *Writer) Pad(n int) { w.buf = append(w.buf, make([]byte, n)...) }

// U8 appends one byte.
func (w *Writer) U8(v byte) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 appends a big-endian uint16.
func (w *Writer) U16(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Bytes32 appends a fixed 32-byte value.
func (w *Writer) Bytes32(v [32]byte) { w.buf = append(w.buf, v[:]...) }

// Var appends a length-prefixed byte string.
func (w *Writer) Var(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// Reader decodes a message produced by Writer.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps b for decoding.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// Err returns the first decoding error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an error is already set: a decoder's own
// checks beyond the wire format surface through Err and Done like
// ErrTruncated does.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Done returns nil if the reader consumed the buffer exactly and without
// errors; otherwise it returns the decoding error or ErrTruncated.
func (r *Reader) Done() error {
	if r.err != nil {
		return r.err
	}
	if r.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes", r.Remaining())
	}
	return nil
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.err = ErrTruncated
		return nil
	}
	out := r.buf[r.off : r.off+n : r.off+n] // an append to a view never overwrites what follows
	r.off += n
	return out
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a big-endian uint16.
func (r *Reader) U16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Count reads a u32 element count for elements of at least minSize bytes
// each. A count the remaining bytes cannot hold is ErrTruncated (and reads
// as 0), so a decoder that sizes an allocation or a loop by it never does
// more work than its input can back.
func (r *Reader) Count(minSize int) int {
	n := r.U32()
	if r.err == nil && uint64(n)*uint64(minSize) > uint64(r.Remaining()) {
		r.err = ErrTruncated
		return 0
	}
	return int(n)
}

// Bytes32 reads a fixed 32-byte value.
func (r *Reader) Bytes32() [32]byte {
	var out [32]byte
	b := r.take(32)
	if b != nil {
		copy(out[:], b)
	}
	return out
}

// Var reads a length-prefixed byte string. The returned slice is a copy.
func (r *Reader) Var() []byte {
	b := r.VarView()
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// VarView reads a length-prefixed byte string without copying: the
// returned slice aliases the Reader's buffer. Hot decode paths use it to
// stay allocation-free; callers that retain the bytes beyond the buffer's
// lifetime (or past a pooled buffer's release) must use Var instead.
func (r *Reader) VarView() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if uint32(r.Remaining()) < n {
		r.err = ErrTruncated
		return nil
	}
	return r.take(int(n))
}

// Invoke is the plaintext of Alg. 1's INVOKE message, encrypted under the
// communication key kC before it leaves the client.
type Invoke struct {
	ClientID uint32          // i
	TC       uint64          // tc: sequence number of the client's last operation
	HC       hashchain.Value // hc: hash-chain value of the client's last operation
	Op       []byte          // o: the operation, encoded by the service codec
	Retry    bool            // retry marker (Sec. 4.6.1)
}

// Encode serializes the message.
func (m *Invoke) Encode() []byte {
	w := NewWriter(1 + InvokeOverhead + 4 + len(m.Op))
	w.U8(TagInvoke)
	w.U32(m.ClientID)
	w.U64(m.TC)
	w.Bytes32(m.HC)
	w.Bool(m.Retry)
	w.Var(m.Op)
	return w.Bytes()
}

// DecodeInvoke parses an encoded INVOKE message. The returned Op aliases
// b (the AEAD-opened plaintext on the hot path is used once and never
// pooled); callers that retain Op beyond b's lifetime must copy it.
func DecodeInvoke(b []byte) (*Invoke, error) {
	r := NewReader(b)
	if tag := r.U8(); r.Err() == nil && tag != TagInvoke {
		return nil, &ErrBadTag{Got: tag, Want: TagInvoke}
	}
	m := &Invoke{
		ClientID: r.U32(),
		TC:       r.U64(),
		HC:       r.Bytes32(),
		Retry:    r.Bool(),
		Op:       r.VarView(),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wire: decode invoke: %w", err)
	}
	return m, nil
}

// Reply is the plaintext of Alg. 2's REPLY message, encrypted under kC.
type Reply struct {
	T         uint64          // t: sequence number assigned to the operation
	H         hashchain.Value // h: hash-chain value after the operation
	Result    []byte          // r: operation result from execF
	Q         uint64          // q: latest majority-stable sequence number
	HCPrev    hashchain.Value // h'c: echo of the client's previous chain value
	BeaconSeq uint64          // heartbeat beacons committed (clone freshness)
}

// Encode serializes the message.
func (m *Reply) Encode() []byte {
	w := NewWriter(1 + ReplyOverhead + 4 + len(m.Result))
	w.U8(TagReply)
	w.U64(m.T)
	w.Bytes32(m.H)
	w.U64(m.Q)
	w.Bytes32(m.HCPrev)
	w.U64(m.BeaconSeq)
	w.Var(m.Result)
	return w.Bytes()
}

// DecodeReply parses an encoded REPLY message. Result aliases b; callers
// that retain it beyond b's lifetime must copy.
func DecodeReply(b []byte) (*Reply, error) {
	r := NewReader(b)
	if tag := r.U8(); r.Err() == nil && tag != TagReply {
		return nil, &ErrBadTag{Got: tag, Want: TagReply}
	}
	m := &Reply{
		T:         r.U64(),
		H:         r.Bytes32(),
		Q:         r.U64(),
		HCPrev:    r.Bytes32(),
		BeaconSeq: r.U64(),
		Result:    r.VarView(),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wire: decode reply: %w", err)
	}
	return m, nil
}

// ReadInvoke is the plaintext of a snapshot-read request, encrypted under
// kC with a distinct associated-data label so it can never be replayed as
// a state-changing INVOKE (or vice versa). It carries the client's full
// context — the trusted context verifies it against the snapshot's V map
// exactly as Alg. 2 does for writes, so a rolled-back or forked enclave
// is detected by reads too — plus a random nonce that binds the reply to
// this specific request (reads do not advance the hash chain, so the
// chain cannot provide that binding).
type ReadInvoke struct {
	ClientID uint32
	TC       uint64          // tc: sequence number of the client's last write
	HC       hashchain.Value // hc: hash-chain value of the client's last write
	Nonce    uint64
	Op       []byte
}

// Encode serializes the message.
func (m *ReadInvoke) Encode() []byte {
	w := NewWriter(1 + 4 + 8 + hashchain.Size + 8 + 4 + len(m.Op))
	w.U8(TagReadInvoke)
	w.U32(m.ClientID)
	w.U64(m.TC)
	w.Bytes32(m.HC)
	w.U64(m.Nonce)
	w.Var(m.Op)
	return w.Bytes()
}

// DecodeReadInvoke parses an encoded read request. Op aliases b.
func DecodeReadInvoke(b []byte) (*ReadInvoke, error) {
	r := NewReader(b)
	if tag := r.U8(); r.Err() == nil && tag != TagReadInvoke {
		return nil, &ErrBadTag{Got: tag, Want: TagReadInvoke}
	}
	m := &ReadInvoke{
		ClientID: r.U32(),
		TC:       r.U64(),
		HC:       r.Bytes32(),
		Nonce:    r.U64(),
		Op:       r.VarView(),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wire: decode read invoke: %w", err)
	}
	return m, nil
}

// ReadReply is the plaintext of a snapshot-read response, encrypted under
// kC. Seq is the durable snapshot the read executed against; Q is the
// majority-stable sequence number at that snapshot; HCEcho returns the
// client's own chain value and Nonce the request nonce, proving the reply
// was produced for this client's current context and this request.
type ReadReply struct {
	Seq    uint64
	Q      uint64
	HCEcho hashchain.Value
	Nonce  uint64
	Result []byte
}

// Encode serializes the message.
func (m *ReadReply) Encode() []byte {
	w := NewWriter(1 + 8 + 8 + hashchain.Size + 8 + 4 + len(m.Result))
	w.U8(TagReadReply)
	w.U64(m.Seq)
	w.U64(m.Q)
	w.Bytes32(m.HCEcho)
	w.U64(m.Nonce)
	w.Var(m.Result)
	return w.Bytes()
}

// DecodeReadReply parses an encoded read response. Result aliases b.
func DecodeReadReply(b []byte) (*ReadReply, error) {
	r := NewReader(b)
	if tag := r.U8(); r.Err() == nil && tag != TagReadReply {
		return nil, &ErrBadTag{Got: tag, Want: TagReadReply}
	}
	m := &ReadReply{
		Seq:    r.U64(),
		Q:      r.U64(),
		HCEcho: r.Bytes32(),
		Nonce:  r.U64(),
		Result: r.VarView(),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("wire: decode read reply: %w", err)
	}
	return m, nil
}
