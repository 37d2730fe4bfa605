// Package aead provides the authenticated encryption used throughout LCM.
//
// The paper (Sec. 4.1) requires authenticated encryption with a symmetric
// key k and two functions auth-encrypt(m, k) and auth-decrypt(c, k). We
// implement them with AES-GCM and 128-bit keys, matching the prototype in
// Sec. 5.2 ("AES-GCM with 128-bit keys" for protocol messages and state).
//
// Every ciphertext carries a fresh random nonce; associated data binds a
// ciphertext to its context (for example a client identifier or a blob
// label) so that a malicious server cannot transplant ciphertexts between
// contexts.
package aead

import (
	"container/list"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/subtle"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// KeySize is the AES-128 key size in bytes used by the whole system.
const KeySize = 16

// NonceSize is the standard GCM nonce size in bytes.
const NonceSize = 12

// TagSize is the GCM authentication tag size in bytes.
const TagSize = 16

// Overhead is the total ciphertext expansion: nonce plus the GCM tag.
const Overhead = NonceSize + TagSize

var (
	// ErrAuth reports that a ciphertext failed authentication. In the
	// protocol this is equivalent to an "assert FALSE" (Sec. 4.2.5): the
	// receiver must treat the peer (or the storage) as misbehaving.
	ErrAuth = errors.New("aead: message authentication failed")

	// ErrKeySize reports a key of the wrong length.
	ErrKeySize = fmt.Errorf("aead: key must be %d bytes", KeySize)

	// ErrCiphertextShort reports a ciphertext too short to contain a nonce
	// and tag.
	ErrCiphertextShort = errors.New("aead: ciphertext too short")
)

// Key is a symmetric AES-128 key.
type Key [KeySize]byte

// NewKey generates a fresh random key using the system entropy source.
func NewKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("aead: generate key: %w", err)
	}
	return k, nil
}

// KeyFromBytes copies b into a Key. It returns ErrKeySize unless
// len(b) == KeySize.
func KeyFromBytes(b []byte) (Key, error) {
	var k Key
	if len(b) != KeySize {
		return Key{}, ErrKeySize
	}
	copy(k[:], b)
	return k, nil
}

// IsZero reports whether the key is the all-zero value. The protocol uses
// the zero key as the "⊥" (unset) marker from Alg. 2.
func (k Key) IsZero() bool {
	var zero Key
	return k == zero
}

// Bytes returns a copy of the key material.
func (k Key) Bytes() []byte {
	out := make([]byte, KeySize)
	copy(out, k[:])
	return out
}

func newGCM(k Key) (cipher.AEAD, error) {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		return nil, fmt.Errorf("aead: new cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("aead: new gcm: %w", err)
	}
	return gcm, nil
}

// The hot path seals and opens thousands of messages per second under a
// handful of long-lived keys (kC, kP, sealing keys), and expanding the
// AES key schedule plus the GCM hash key dominates small-message cost.
// Caching the constructed cipher.AEAD per key amortizes that setup to
// once per key. cipher.AEAD values are safe for concurrent use.
//
// The cache is a small LRU: epoch rotations and reshards retire sealing
// and session keys for good, so retired keys age out of the cache (and
// their expanded key schedules out of process memory) instead of
// permanently occupying slots. Whatever keys are live keep hitting and
// stay at the front, so the hot path never degrades to per-call setup no
// matter how many keys a long-running deployment churns through.
const maxCachedKeys = 256

type gcmEntry struct {
	key Key
	gcm cipher.AEAD
}

var (
	gcmMu    sync.Mutex
	gcmCache = make(map[Key]*list.Element)
	gcmLRU   = list.New() // front = most recently used
)

func cachedGCM(k Key) (cipher.AEAD, error) {
	gcmMu.Lock()
	if el, ok := gcmCache[k]; ok {
		gcmLRU.MoveToFront(el)
		gcm := el.Value.(*gcmEntry).gcm
		gcmMu.Unlock()
		return gcm, nil
	}
	gcmMu.Unlock()

	gcm, err := newGCM(k)
	if err != nil {
		return nil, err
	}

	gcmMu.Lock()
	if el, ok := gcmCache[k]; ok {
		// Lost a construction race; keep the incumbent.
		gcmLRU.MoveToFront(el)
		gcm = el.Value.(*gcmEntry).gcm
	} else {
		gcmCache[k] = gcmLRU.PushFront(&gcmEntry{key: k, gcm: gcm})
		if gcmLRU.Len() > maxCachedKeys {
			old := gcmLRU.Remove(gcmLRU.Back()).(*gcmEntry)
			delete(gcmCache, old.key)
		}
	}
	gcmMu.Unlock()
	return gcm, nil
}

// Seal implements auth-encrypt(m, k): it encrypts and authenticates
// plaintext under k, binding the optional associated data. The result is
// nonce ‖ ciphertext ‖ tag.
func Seal(k Key, plaintext, associated []byte) ([]byte, error) {
	gcm, err := cachedGCM(k)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, NonceSize, NonceSize+len(plaintext)+gcm.Overhead())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("aead: nonce: %w", err)
	}
	return gcm.Seal(nonce, nonce, plaintext, associated), nil
}

// SealInPlace is Seal for a plaintext encoded straight into the buffer
// that will hold the ciphertext: buf is NonceSize bytes of headroom
// followed by the plaintext. The nonce is drawn into the headroom and the
// plaintext encrypted where it lies, so when cap(buf) leaves room for the
// tag (Overhead − NonceSize bytes) the result aliases buf and sealing
// neither allocates nor copies. The result is nonce ‖ ciphertext ‖ tag,
// exactly what Seal returns.
func SealInPlace(k Key, buf, associated []byte) ([]byte, error) {
	gcm, err := cachedGCM(k)
	if err != nil {
		return nil, err
	}
	if len(buf) < NonceSize {
		return nil, ErrCiphertextShort
	}
	buf = slices.Grow(buf, gcm.Overhead())
	if _, err := rand.Read(buf[:NonceSize]); err != nil {
		return nil, fmt.Errorf("aead: nonce: %w", err)
	}
	return gcm.Seal(buf[:NonceSize], buf[:NonceSize], buf[NonceSize:], associated), nil
}

// Reseal re-derives what Seal returned for plaintext and associated from
// that call's nonce and tag: it seals again under the nonce and returns
// the result only if its tag equals tag (constant-time). GCM is
// deterministic, so a match is the original byte for byte; any other
// input would be a second message under a used nonce: ErrAuth, no bytes.
func Reseal(k Key, nonce, tag, plaintext, associated []byte) ([]byte, error) {
	gcm, err := cachedGCM(k)
	if err != nil {
		return nil, err
	}
	if len(nonce) != NonceSize {
		return nil, ErrAuth
	}
	out := gcm.Seal(append(make([]byte, 0, NonceSize+len(plaintext)+TagSize), nonce...), nonce, plaintext, associated)
	if subtle.ConstantTimeCompare(out[len(out)-TagSize:], tag) != 1 {
		return nil, ErrAuth
	}
	return out, nil
}

// Open implements auth-decrypt(c, k): it verifies and decrypts a ciphertext
// produced by Seal with the same key and associated data. A failed
// authentication returns ErrAuth.
func Open(k Key, ciphertext, associated []byte) ([]byte, error) {
	return open(nil, k, ciphertext, associated)
}

// OpenInPlace is Open decrypting into the ciphertext's own storage, which
// the caller must own: the plaintext aliases ciphertext[NonceSize:], and
// after a failed open its contents are undefined.
func OpenInPlace(k Key, ciphertext, associated []byte) ([]byte, error) {
	return open(ciphertext[min(len(ciphertext), NonceSize):][:0], k, ciphertext, associated)
}

func open(dst []byte, k Key, ciphertext, associated []byte) ([]byte, error) {
	gcm, err := cachedGCM(k)
	if err != nil {
		return nil, err
	}
	if len(ciphertext) < NonceSize+gcm.Overhead() {
		return nil, ErrCiphertextShort
	}
	nonce, body := ciphertext[:NonceSize], ciphertext[NonceSize:]
	plaintext, err := gcm.Open(dst, nonce, body, associated)
	if err != nil {
		return nil, ErrAuth
	}
	return plaintext, nil
}
