// Package replication adds enclave-to-enclave chain replication on top of
// LCM's incremental persistence. The paper deliberately stops at rollback
// *detection*: a client that observes a stale enclave halts forever, and a
// host that loses its log tail is a permanent outage. Replication upgrades
// this to rollback *resistance* in the spirit of "TEE is not a Healer" and
// Rollbaccine: every sealed delta record is mirrored to f peer enclaves
// before the reply batch is released, so a restarting enclave that finds a
// stale local chain can fetch the missing suffix from a peer, verify it
// against its own hash chain head, fold it, and resume.
//
// Trust argument. The mirrored records are the primary enclave's own
// AEAD-sealed delta ciphertexts, chained by Prev = hash(predecessor
// ciphertext) and verifiable only under the state key kP that never leaves
// the trusted perimeter. Peers (and the hosts relaying to them) therefore
// cannot forge, reorder or splice history — the worst a compromised peer
// can do is withhold its suffix, which degrades healing back to the
// paper's detect-and-halt guarantee. Rolling the service back without
// detection now requires rolling back the primary host *and* every peer
// that acknowledged past the target point: f+1 host compromises for an
// f-peer set with quorum f+1. The per-replica-set key kR below only
// authenticates the mirroring channel and its acks (so a random network
// party cannot feed junk into a mirror or fake acks to the committer); it
// is deliberately *not* part of the safety argument, because the untrusted
// host holds it.
package replication

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"lcm/internal/aead"
	"lcm/internal/securechannel"
	"lcm/internal/tee"
	"lcm/internal/wire"
)

// Identity is the replica program's measured identity string.
const Identity = "lcm/replica/v1"

// Storage slots used by a replica enclave (namespaced per replica by the
// host).
const (
	// SlotKey holds the replica-set key kR sealed under the replica's own
	// sealing key, so a restarted replica re-enters the set without
	// re-provisioning.
	SlotKey = "lcm-replica-key"
	// SlotBase holds the chain anchor below the mirrored suffix (the Head
	// of the primary's last stored checkpoint), sealed under kR.
	SlotBase = "lcm-replica-base"
	// SlotMirror is the append-only mirror of the primary's sealed delta
	// records, stored as received — the replica cannot (and need not) open
	// them.
	SlotMirror = "lcm-replica-mirror"
)

// Associated-data labels binding replica ciphertexts to their contexts.
const (
	adKey  = "lcm/replica/blob/key/v1"
	adBase = "lcm/replica/blob/base/v1"
	adMsg  = "lcm/replica/msg/v1"
	adAck  = "lcm/replica/ack/v1"
)

// Call kinds of the replica ecall interface. Append-only ABI.
const (
	callAttest byte = iota + 1
	callProvision
	callAppend
	callSuffix
	callReset
	callStatus
)

var (
	// ErrNotProvisioned reports a data call before the replica joined a set.
	ErrNotProvisioned = errors.New("replication: replica not provisioned")
	// ErrOutOfSync reports an append whose predecessor hash does not match
	// the replica's mirror head; the caller must resynchronise the mirror.
	ErrOutOfSync = errors.New("replication: append out of sync with mirror head")
	// ErrUnknownSuffix reports a suffix request from a chain position this
	// replica's mirror does not contain.
	ErrUnknownSuffix = errors.New("replication: unknown chain position")
)

// Factory returns a tee.ProgramFactory for replica enclaves.
func Factory() tee.ProgramFactory {
	return func() tee.Program { return &replica{} }
}

// replica is the peer-side tee.Program. It mirrors sealed delta records and
// serves chain suffixes; it holds no service state and no kP.
type replica struct {
	kr          aead.Key
	provisioned bool
	base        [32]byte
	head        [32]byte
	count       int
	channel     *securechannel.Responder
	footprint   int64
}

// Identity implements tee.Program.
func (r *replica) Identity() string { return Identity }

// Init recovers the replica's set membership and mirror head from its own
// sealed storage, so a crash-restarted replica resumes without any
// re-provisioning round.
func (r *replica) Init(env tee.Env) error {
	ch, err := securechannel.NewResponder()
	if err != nil {
		return err
	}
	r.channel = ch
	sealedKey, err := env.Host().Load(SlotKey)
	if err != nil {
		return nil // never provisioned (or host withholds; then calls fail benignly)
	}
	raw, err := aead.Open(env.SealingKey(), sealedKey, []byte(adKey))
	if err != nil {
		// Sealed on another platform or corrupted: behave as fresh and
		// await (re-)provisioning rather than halting an availability
		// helper.
		return nil
	}
	kr, err := aead.KeyFromBytes(raw)
	if err != nil {
		return nil
	}
	sealedBase, err := env.Host().Load(SlotBase)
	if err != nil {
		return nil
	}
	base, err := aead.Open(kr, sealedBase, []byte(adBase))
	if err != nil || len(base) != 32 {
		return nil
	}
	r.kr = kr
	copy(r.base[:], base)
	r.head = r.base
	records, err := env.Host().LoadLog(SlotMirror)
	if err != nil {
		return fmt.Errorf("replication: load mirror: %w", err)
	}
	for _, rec := range records {
		r.head = sha256.Sum256(rec)
		r.count++
		r.charge(env, int64(len(rec)))
	}
	r.provisioned = true
	return nil
}

func (r *replica) charge(env tee.Env, delta int64) {
	r.footprint += delta
	env.ChargeMemory(delta)
}

// Call implements tee.Program.
func (r *replica) Call(env tee.Env, payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, errors.New("replication: empty call")
	}
	body := payload[1:]
	switch payload[0] {
	case callAttest:
		return r.handleAttest(env, body)
	case callProvision:
		return r.handleProvision(env, body)
	case callAppend:
		return r.handleAppend(env, body)
	case callSuffix:
		return r.handleSuffix(env, body)
	case callReset:
		return r.handleReset(env, body)
	case callStatus:
		return r.handleStatus(), nil
	default:
		return nil, fmt.Errorf("replication: unknown call kind %d", payload[0])
	}
}

// EncodeAttestCall builds an attestation request carrying the verifier's
// nonce.
func EncodeAttestCall(nonce []byte) []byte {
	out := make([]byte, 1+len(nonce))
	out[0] = callAttest
	copy(out[1:], nonce)
	return out
}

func (r *replica) handleAttest(env tee.Env, nonce []byte) ([]byte, error) {
	q := env.Quote(nonce, r.channel.PublicKey())
	return encodeQuote(q), nil
}

// provisionPayload is the securechannel plaintext that enrols a replica in
// a set: the replica-set key and the current chain anchor.
type provisionPayload struct {
	KR   []byte
	Base [32]byte
}

// EncodeProvisionCall builds a provisioning call from a sealed channel
// payload.
func EncodeProvisionCall(senderPub, ciphertext []byte) []byte {
	w := wire.NewWriter(1 + 8 + len(senderPub) + len(ciphertext))
	w.U8(callProvision)
	w.Var(senderPub)
	w.Var(ciphertext)
	return w.Bytes()
}

func (r *replica) handleProvision(env tee.Env, body []byte) ([]byte, error) {
	rd := wire.NewReader(body)
	senderPub := rd.Var()
	ct := rd.Var()
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("replication: decode provision: %w", err)
	}
	plain, err := r.channel.Open(senderPub, ct)
	if err != nil {
		return nil, err
	}
	pr := wire.NewReader(plain)
	krBytes := pr.Var()
	base := pr.Bytes32()
	if err := pr.Done(); err != nil {
		return nil, fmt.Errorf("replication: decode provision payload: %w", err)
	}
	kr, err := aead.KeyFromBytes(krBytes)
	if err != nil {
		return nil, err
	}
	// Re-provisioning resets the mirror: the caller holds the set key, so
	// it is trust-equivalent to the host that created the replica.
	sealedKey, err := aead.Seal(env.SealingKey(), kr.Bytes(), []byte(adKey))
	if err != nil {
		return nil, err
	}
	if err := env.Host().Store(SlotKey, sealedKey); err != nil {
		return nil, err
	}
	r.kr = kr
	if err := r.storeBase(env, base); err != nil {
		return nil, err
	}
	r.provisioned = true
	return r.sealAck(r.encodeHeadAck())
}

func (r *replica) storeBase(env tee.Env, base [32]byte) error {
	sealedBase, err := aead.Seal(r.kr, base[:], []byte(adBase))
	if err != nil {
		return err
	}
	if err := env.Host().Store(SlotBase, sealedBase); err != nil {
		return err
	}
	if err := env.Host().TruncateLog(SlotMirror); err != nil {
		return err
	}
	r.base = base
	r.head = base
	r.count = 0
	r.charge(env, -r.footprint)
	return nil
}

// EncodeAppendCall seals an append request under the set key: the expected
// predecessor hash followed by the records to mirror.
func EncodeAppendCall(kr aead.Key, prevHead [32]byte, records [][]byte) ([]byte, error) {
	size := 32 + 4
	for _, rec := range records {
		size += 4 + len(rec)
	}
	w := wire.NewWriter(size)
	w.Bytes32(prevHead)
	w.U32(uint32(len(records)))
	for _, rec := range records {
		w.Var(rec)
	}
	return sealCall(kr, callAppend, w.Bytes())
}

func (r *replica) handleAppend(env tee.Env, body []byte) ([]byte, error) {
	plain, err := r.openMsg(body)
	if err != nil {
		return nil, err
	}
	rd := wire.NewReader(plain)
	prevHead := rd.Bytes32()
	n := int(rd.U32())
	records := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		records = append(records, rd.Var())
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("replication: decode append: %w", err)
	}
	if prevHead != r.head {
		return nil, ErrOutOfSync
	}
	if len(records) > 0 {
		if err := env.Host().AppendGroup(SlotMirror, records); err != nil {
			return nil, err
		}
		for _, rec := range records {
			r.head = sha256.Sum256(rec)
			r.count++
			r.charge(env, int64(len(rec)))
		}
	}
	return r.sealAck(r.encodeHeadAck())
}

// EncodeSuffixCall seals a suffix request: the caller's current chain head.
func EncodeSuffixCall(kr aead.Key, from [32]byte) ([]byte, error) {
	w := wire.NewWriter(32)
	w.Bytes32(from)
	return sealCall(kr, callSuffix, w.Bytes())
}

func (r *replica) handleSuffix(env tee.Env, body []byte) ([]byte, error) {
	plain, err := r.openMsg(body)
	if err != nil {
		return nil, err
	}
	rd := wire.NewReader(plain)
	from := rd.Bytes32()
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("replication: decode suffix: %w", err)
	}
	var suffix [][]byte
	if from != r.head {
		records, err := env.Host().LoadLog(SlotMirror)
		if err != nil {
			return nil, err
		}
		start := -1
		if from == r.base {
			start = 0
		} else {
			for i, rec := range records {
				if sha256.Sum256(rec) == from {
					start = i + 1
					break
				}
			}
		}
		if start < 0 {
			return nil, ErrUnknownSuffix
		}
		suffix = records[start:]
	}
	size := 4
	for _, rec := range suffix {
		size += 4 + len(rec)
	}
	w := wire.NewWriter(size)
	w.U32(uint32(len(suffix)))
	for _, rec := range suffix {
		w.Var(rec)
	}
	return r.sealAck(w.Bytes())
}

// EncodeResetCall seals a mirror reset to a new chain anchor (after a
// checkpoint of the primary's chain was stored).
func EncodeResetCall(kr aead.Key, newBase [32]byte) ([]byte, error) {
	w := wire.NewWriter(32)
	w.Bytes32(newBase)
	return sealCall(kr, callReset, w.Bytes())
}

func (r *replica) handleReset(env tee.Env, body []byte) ([]byte, error) {
	plain, err := r.openMsg(body)
	if err != nil {
		return nil, err
	}
	rd := wire.NewReader(plain)
	newBase := rd.Bytes32()
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("replication: decode reset: %w", err)
	}
	if err := r.storeBase(env, newBase); err != nil {
		return nil, err
	}
	return r.sealAck(r.encodeHeadAck())
}

// EncodeStatusCall builds an (unauthenticated) status probe.
func EncodeStatusCall() []byte { return []byte{callStatus} }

// Status is a replica's plaintext operational snapshot. Nothing in it is
// secret: the host observing it already sees every store and append.
type Status struct {
	Provisioned bool
	Count       int
	Head        [32]byte
}

func (r *replica) handleStatus() []byte {
	w := wire.NewWriter(1 + 4 + 32)
	w.Bool(r.provisioned)
	w.U32(uint32(r.count))
	w.Bytes32(r.head)
	return w.Bytes()
}

// DecodeStatus parses a status response.
func DecodeStatus(payload []byte) (Status, error) {
	rd := wire.NewReader(payload)
	var st Status
	st.Provisioned = rd.Bool()
	st.Count = int(rd.U32())
	st.Head = rd.Bytes32()
	if err := rd.Done(); err != nil {
		return Status{}, fmt.Errorf("replication: decode status: %w", err)
	}
	return st, nil
}

// HeadAck is the sealed acknowledgement returned by provision, append and
// reset: the replica's resulting mirror head and record count.
type HeadAck struct {
	Head  [32]byte
	Count int
}

func (r *replica) encodeHeadAck() []byte {
	w := wire.NewWriter(32 + 4)
	w.Bytes32(r.head)
	w.U32(uint32(r.count))
	return w.Bytes()
}

// OpenHeadAck opens and parses a sealed head acknowledgement.
func OpenHeadAck(kr aead.Key, sealed []byte) (HeadAck, error) {
	plain, err := aead.Open(kr, sealed, []byte(adAck))
	if err != nil {
		return HeadAck{}, err
	}
	rd := wire.NewReader(plain)
	var ack HeadAck
	ack.Head = rd.Bytes32()
	ack.Count = int(rd.U32())
	if err := rd.Done(); err != nil {
		return HeadAck{}, fmt.Errorf("replication: decode ack: %w", err)
	}
	return ack, nil
}

// OpenSuffixAck opens and parses a sealed suffix response.
func OpenSuffixAck(kr aead.Key, sealed []byte) ([][]byte, error) {
	plain, err := aead.Open(kr, sealed, []byte(adAck))
	if err != nil {
		return nil, err
	}
	rd := wire.NewReader(plain)
	n := int(rd.U32())
	records := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		records = append(records, rd.Var())
	}
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("replication: decode suffix ack: %w", err)
	}
	return records, nil
}

// sealCall seals a request body under kR and prefixes the call kind.
func sealCall(kr aead.Key, kind byte, plain []byte) ([]byte, error) {
	ct, err := aead.Seal(kr, plain, []byte(adMsg))
	if err != nil {
		return nil, err
	}
	out := make([]byte, 1+len(ct))
	out[0] = kind
	copy(out[1:], ct)
	return out, nil
}

func (r *replica) openMsg(body []byte) ([]byte, error) {
	if !r.provisioned {
		return nil, ErrNotProvisioned
	}
	return aead.Open(r.kr, body, []byte(adMsg))
}

func (r *replica) sealAck(plain []byte) ([]byte, error) {
	return aead.Seal(r.kr, plain, []byte(adAck))
}

// Quote codec (same field order as core's): the replica cannot import
// internal/core (core is the replicated program, not a dependency), so it
// carries its own copy of the trivial encoding.

func encodeQuote(q tee.Quote) []byte {
	w := wire.NewWriter(64 + len(q.PlatformID) + len(q.Nonce) + len(q.UserData) + len(q.MAC))
	w.Var([]byte(q.PlatformID))
	w.Bytes32(q.Measurement)
	w.Var(q.Nonce)
	w.Var(q.UserData)
	w.Var(q.MAC)
	return w.Bytes()
}

// DecodeQuote parses an attestation response.
func DecodeQuote(payload []byte) (tee.Quote, error) {
	rd := wire.NewReader(payload)
	var q tee.Quote
	q.PlatformID = string(rd.Var())
	q.Measurement = tee.Measurement(rd.Bytes32())
	q.Nonce = rd.Var()
	q.UserData = rd.Var()
	q.MAC = rd.Var()
	if err := rd.Done(); err != nil {
		return tee.Quote{}, fmt.Errorf("replication: decode quote: %w", err)
	}
	return q, nil
}
