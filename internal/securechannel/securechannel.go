// Package securechannel implements the attested secure channel used during
// bootstrapping (Sec. 4.3), admin recovery and resharding, of which a
// migration (Sec. 4.6.2) is the case on another server: after verifying a
// remote-attestation quote, the admin (or a reshard's lead enclave)
// injects secret keys into a trusted execution context through a channel
// that the untrusted server relaying the messages cannot read or tamper
// with.
//
// The channel is a single-round X25519 key agreement: the responder (the
// enclave) generates an ephemeral key pair and publishes its public key as
// attestation user data, which binds the key to the attested enclave. The
// initiator (the admin) generates its own ephemeral pair, derives a shared
// AEAD key with HKDF, and sends its public key alongside each sealed
// payload.
package securechannel

import (
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"lcm/internal/aead"
	"lcm/internal/keyderiv"
)

// ErrBadPeerKey reports a malformed peer public key.
var ErrBadPeerKey = errors.New("securechannel: invalid peer public key")

// ErrReplay reports a payload or session message delivered a second time:
// the exact bytes were already accepted once. Honest flows never re-send a
// sealed payload verbatim (every Seal uses a fresh ephemeral key), so a
// repeat is a recorded-and-replayed delivery.
var ErrReplay = errors.New("securechannel: replayed payload")

const channelContext = "lcm/securechannel/v1"

// openSeenCap bounds the replay filter of one-shot Opens per responder.
// Honest exchanges perform a handful of Opens over a responder's lifetime;
// the cap only guards against unbounded growth under a flooding server.
const openSeenCap = 4096

// Responder is the enclave side of the channel. Its public key is meant to
// be embedded in an attestation quote's user data.
type Responder struct {
	priv *ecdh.PrivateKey

	// Replay filter over successfully opened payloads: digests of
	// (senderPub, ciphertext), bounded FIFO.
	mu    sync.Mutex
	seen  map[[32]byte]struct{}
	order [][32]byte
}

// NewResponder generates the responder's ephemeral key pair.
func NewResponder() (*Responder, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("securechannel: generate key: %w", err)
	}
	return &Responder{priv: priv, seen: make(map[[32]byte]struct{})}, nil
}

// PublicKey returns the responder's public key bytes for embedding in a
// quote.
func (r *Responder) PublicKey() []byte {
	return r.priv.PublicKey().Bytes()
}

// Open decrypts a sealed payload produced by Seal for this responder.
// senderPub is the initiator's ephemeral public key that accompanied the
// ciphertext.
//
// Each payload opens exactly once: re-delivering the same (senderPub,
// ciphertext) pair fails with ErrReplay, so a relay that captured a
// bootstrap or handoff message cannot feed it to the responder twice.
func (r *Responder) Open(senderPub, ciphertext []byte) ([]byte, error) {
	peer, err := ecdh.X25519().NewPublicKey(senderPub)
	if err != nil {
		return nil, ErrBadPeerKey
	}
	digest := sha256.New()
	digest.Write(senderPub)
	digest.Write(ciphertext)
	var id [32]byte
	digest.Sum(id[:0])
	r.mu.Lock()
	_, replayed := r.seen[id]
	r.mu.Unlock()
	if replayed {
		return nil, ErrReplay
	}
	shared, err := r.priv.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("securechannel: ecdh: %w", err)
	}
	key, err := channelKey(shared, senderPub, r.PublicKey())
	if err != nil {
		return nil, err
	}
	plain, err := aead.Open(key, ciphertext, []byte(channelContext))
	if err != nil {
		return nil, err
	}
	// Record only successful opens: garbage should not be able to displace
	// the filter's memory of real payloads.
	r.mu.Lock()
	if _, dup := r.seen[id]; !dup {
		r.seen[id] = struct{}{}
		r.order = append(r.order, id)
		if len(r.order) > openSeenCap {
			delete(r.seen, r.order[0])
			r.order = r.order[1:]
		}
	}
	r.mu.Unlock()
	return plain, nil
}

// Seal encrypts payload to a responder identified by its public key
// (typically taken from a verified attestation quote). It returns the
// initiator's ephemeral public key and the ciphertext.
func Seal(responderPub, payload []byte) (senderPub, ciphertext []byte, err error) {
	peer, err := ecdh.X25519().NewPublicKey(responderPub)
	if err != nil {
		return nil, nil, ErrBadPeerKey
	}
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("securechannel: generate key: %w", err)
	}
	shared, err := priv.ECDH(peer)
	if err != nil {
		return nil, nil, fmt.Errorf("securechannel: ecdh: %w", err)
	}
	senderPub = priv.PublicKey().Bytes()
	key, err := channelKey(shared, senderPub, responderPub)
	if err != nil {
		return nil, nil, err
	}
	ciphertext, err = aead.Seal(key, payload, []byte(channelContext))
	if err != nil {
		return nil, nil, err
	}
	return senderPub, ciphertext, nil
}

// channelKey derives the channel AEAD key from the ECDH shared secret and
// both public keys (so that a key-share swap changes the key).
func channelKey(shared, initiatorPub, responderPub []byte) (aead.Key, error) {
	salt := make([]byte, 0, len(initiatorPub)+len(responderPub))
	salt = append(salt, initiatorPub...)
	salt = append(salt, responderPub...)
	raw, err := keyderiv.Derive(shared, salt, channelContext, aead.KeySize)
	if err != nil {
		return aead.Key{}, err
	}
	return aead.KeyFromBytes(raw)
}
