package aead

import (
	"bytes"
	"container/list"
	"testing"
	"testing/quick"
)

func TestSealOpenRoundTrip(t *testing.T) {
	k, err := NewKey()
	if err != nil {
		t.Fatalf("NewKey: %v", err)
	}
	tests := []struct {
		name       string
		plaintext  []byte
		associated []byte
	}{
		{name: "empty", plaintext: nil, associated: nil},
		{name: "short", plaintext: []byte("hi"), associated: nil},
		{name: "with associated data", plaintext: []byte("payload"), associated: []byte("ctx")},
		{name: "binary", plaintext: []byte{0, 1, 2, 255, 254}, associated: []byte{9}},
		{name: "large", plaintext: bytes.Repeat([]byte{0xAB}, 1<<16), associated: []byte("blob")},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ct, err := Seal(k, tt.plaintext, tt.associated)
			if err != nil {
				t.Fatalf("Seal: %v", err)
			}
			got, err := Open(k, ct, tt.associated)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if !bytes.Equal(got, tt.plaintext) {
				t.Fatalf("round trip mismatch: got %x want %x", got, tt.plaintext)
			}
		})
	}
}

// SealInPlace produces what Seal produces (Open cannot tell them apart),
// inside the caller's buffer when it has room for the tag, and grows the
// buffer when it has not.
func TestSealInPlace(t *testing.T) {
	k, _ := NewKey()
	plaintext := bytes.Repeat([]byte("state"), 1000)
	ad := []byte("blob")
	for _, spare := range []int{Overhead - NonceSize, 0} {
		buf := make([]byte, NonceSize+len(plaintext), NonceSize+len(plaintext)+spare)
		copy(buf[NonceSize:], plaintext)
		ct, err := SealInPlace(k, buf, ad)
		if err != nil {
			t.Fatalf("SealInPlace (spare %d): %v", spare, err)
		}
		if len(ct) != len(plaintext)+Overhead {
			t.Fatalf("spare %d: sealed %d bytes, want %d", spare, len(ct), len(plaintext)+Overhead)
		}
		if inPlace := &ct[0] == &buf[0]; inPlace != (spare > 0) {
			t.Fatalf("spare %d: result in the caller's buffer = %v", spare, inPlace)
		}
		got, err := Open(k, ct, ad)
		if err != nil || !bytes.Equal(got, plaintext) {
			t.Fatalf("spare %d: Open = %v, round trip equal %v", spare, err, bytes.Equal(got, plaintext))
		}
	}
	buf := make([]byte, NonceSize+len(plaintext), Overhead+len(plaintext))
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := SealInPlace(k, buf, ad); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("SealInPlace with room for the tag allocated %.1f times, want 0", allocs)
	}
	if _, err := SealInPlace(k, make([]byte, NonceSize-1), ad); err != ErrCiphertextShort {
		t.Fatalf("SealInPlace without nonce headroom = %v, want ErrCiphertextShort", err)
	}
}

// OpenInPlace returns what Open returns, in the ciphertext's storage and
// without allocating, and rejects what Open rejects.
func TestOpenInPlace(t *testing.T) {
	k, _ := NewKey()
	plaintext := bytes.Repeat([]byte("record"), 100)
	ad := []byte("log")
	ct, err := Seal(k, plaintext, ad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenInPlace(k, bytes.Clone(ct), ad)
	if err != nil || !bytes.Equal(got, plaintext) {
		t.Fatalf("OpenInPlace = %v, round trip equal %v", err, bytes.Equal(got, plaintext))
	}
	buf := bytes.Clone(ct)
	if got, _ := OpenInPlace(k, buf, ad); &got[0] != &buf[NonceSize] {
		t.Fatal("plaintext is not in the ciphertext's storage")
	}
	if allocs := testing.AllocsPerRun(50, func() {
		copy(buf, ct)
		if _, err := OpenInPlace(k, buf, ad); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("OpenInPlace allocated %.1f times, want 0", allocs)
	}
	ct[len(ct)-1] ^= 1
	if _, err := OpenInPlace(k, ct, ad); err != ErrAuth {
		t.Fatalf("tampered OpenInPlace = %v, want ErrAuth", err)
	}
}

func TestOpenRejectsTamperedCiphertext(t *testing.T) {
	k, _ := NewKey()
	ct, err := Seal(k, []byte("state blob"), []byte("ad"))
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	for i := range ct {
		mutated := bytes.Clone(ct)
		mutated[i] ^= 0x01
		if _, err := Open(k, mutated, []byte("ad")); err == nil {
			t.Fatalf("Open accepted ciphertext with byte %d flipped", i)
		}
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	k1, _ := NewKey()
	k2, _ := NewKey()
	ct, _ := Seal(k1, []byte("secret"), nil)
	if _, err := Open(k2, ct, nil); err != ErrAuth {
		t.Fatalf("Open with wrong key: got %v, want ErrAuth", err)
	}
}

func TestOpenRejectsWrongAssociatedData(t *testing.T) {
	k, _ := NewKey()
	ct, _ := Seal(k, []byte("secret"), []byte("client-1"))
	if _, err := Open(k, ct, []byte("client-2")); err != ErrAuth {
		t.Fatalf("Open with wrong associated data: got %v, want ErrAuth", err)
	}
}

func TestOpenRejectsShortCiphertext(t *testing.T) {
	k, _ := NewKey()
	for _, n := range []int{0, 1, NonceSize, Overhead - 1} {
		if _, err := Open(k, make([]byte, n), nil); err == nil {
			t.Fatalf("Open accepted %d-byte ciphertext", n)
		}
	}
}

func TestSealProducesFreshNonces(t *testing.T) {
	k, _ := NewKey()
	seen := make(map[string]bool)
	for i := 0; i < 64; i++ {
		ct, err := Seal(k, []byte("same message"), nil)
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		nonce := string(ct[:NonceSize])
		if seen[nonce] {
			t.Fatal("nonce reused across Seal calls")
		}
		seen[nonce] = true
	}
}

func TestCiphertextExpansionIsConstant(t *testing.T) {
	k, _ := NewKey()
	for _, n := range []int{0, 1, 100, 2500} {
		ct, err := Seal(k, make([]byte, n), nil)
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		if got := len(ct) - n; got != Overhead {
			t.Fatalf("expansion for %d-byte plaintext = %d, want %d", n, got, Overhead)
		}
	}
}

func TestKeyFromBytes(t *testing.T) {
	if _, err := KeyFromBytes(make([]byte, KeySize-1)); err != ErrKeySize {
		t.Fatalf("short key: got %v, want ErrKeySize", err)
	}
	if _, err := KeyFromBytes(make([]byte, KeySize+1)); err != ErrKeySize {
		t.Fatalf("long key: got %v, want ErrKeySize", err)
	}
	raw := make([]byte, KeySize)
	raw[0] = 7
	k, err := KeyFromBytes(raw)
	if err != nil {
		t.Fatalf("KeyFromBytes: %v", err)
	}
	if !bytes.Equal(k.Bytes(), raw) {
		t.Fatal("Bytes does not round-trip key material")
	}
	// Bytes must return a copy, not an alias.
	k.Bytes()[0] = 99
	if k[0] != 7 {
		t.Fatal("Bytes returned aliased memory")
	}
}

func TestIsZero(t *testing.T) {
	var zero Key
	if !zero.IsZero() {
		t.Fatal("zero key not reported as zero")
	}
	k, _ := NewKey()
	if k.IsZero() {
		t.Fatal("random key reported as zero")
	}
}

// The cipher cache must be transparent: repeated use of one key and use
// of more keys than the cache retains both behave identically to the
// uncached construction.
func TestCipherCacheTransparent(t *testing.T) {
	k, _ := NewKey()
	for i := 0; i < 3; i++ {
		ct, err := Seal(k, []byte("cached"), []byte("ad"))
		if err != nil {
			t.Fatalf("Seal (pass %d): %v", i, err)
		}
		got, err := Open(k, ct, []byte("ad"))
		if err != nil || !bytes.Equal(got, []byte("cached")) {
			t.Fatalf("Open (pass %d): %v %q", i, err, got)
		}
	}
	// Exceed maxCachedKeys: older keys are evicted and every key must
	// still round-trip.
	var last Key
	for i := 0; i < maxCachedKeys+8; i++ {
		var k Key
		k[0], k[1] = byte(i), byte(i>>8)
		k[15] = 0xEE
		last = k
		if _, err := cachedGCM(k); err != nil {
			t.Fatalf("cachedGCM key %d: %v", i, err)
		}
	}
	ct, err := Seal(last, []byte("overflow"), nil)
	if err != nil {
		t.Fatalf("Seal uncached key: %v", err)
	}
	if got, err := Open(last, ct, nil); err != nil || !bytes.Equal(got, []byte("overflow")) {
		t.Fatalf("Open uncached key: %v %q", err, got)
	}
}

// The cache is an LRU: retired (no longer used) keys age out instead of
// occupying slots forever, and keys in active use survive arbitrary churn
// so the hot path never degrades to per-call key-schedule setup.
func TestCipherCacheEvictsRetiredKeys(t *testing.T) {
	reset := func() {
		gcmMu.Lock()
		gcmCache = make(map[Key]*list.Element)
		gcmLRU = list.New()
		gcmMu.Unlock()
	}
	reset()
	defer reset()

	keyN := func(i int) Key {
		var k Key
		k[0], k[1], k[2] = byte(i), byte(i>>8), byte(i>>16)
		k[15] = 0xCC
		return k
	}
	hot, _ := NewKey()
	msg := []byte("m")
	// Churn through more distinct keys than the cache holds, touching the
	// hot key throughout so it stays recently used.
	for i := 0; i < maxCachedKeys+32; i++ {
		if _, err := Seal(keyN(i), msg, nil); err != nil {
			t.Fatalf("Seal churn key %d: %v", i, err)
		}
		if _, err := Seal(hot, msg, nil); err != nil {
			t.Fatalf("Seal hot key: %v", err)
		}
	}

	gcmMu.Lock()
	size, lruLen := len(gcmCache), gcmLRU.Len()
	_, hotCached := gcmCache[hot]
	_, oldestCached := gcmCache[keyN(0)]
	gcmMu.Unlock()
	if size > maxCachedKeys || size != lruLen {
		t.Fatalf("cache size %d (lru %d), want ≤ %d and consistent", size, lruLen, maxCachedKeys)
	}
	if !hotCached {
		t.Fatal("key in active use was evicted")
	}
	if oldestCached {
		t.Fatal("least recently used key was not evicted")
	}
	// Evicted keys still work: rebuilt on demand and re-cached.
	ct, err := Seal(keyN(0), msg, nil)
	if err != nil {
		t.Fatalf("Seal evicted key: %v", err)
	}
	if got, err := Open(keyN(0), ct, nil); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("Open evicted key: %v %q", err, got)
	}
}

// BenchmarkSeal measures the sealed hot path at the protocol's typical
// message size; the cached key schedule is what keeps the per-message
// cost near the raw GCM throughput.
// Reseal returns exactly the bytes Seal returned from that seal's nonce
// and tag; a plaintext, associated data, nonce or tag that differs in one
// bit, or a nonce or tag of the wrong length, yields ErrAuth and no bytes.
func TestReseal(t *testing.T) {
	k, _ := NewKey()
	plaintext, ad := []byte("reply plaintext"), []byte("lcm/msg/reply/v1")
	ct, err := Seal(k, plaintext, ad)
	if err != nil {
		t.Fatal(err)
	}
	nonce, tag := ct[:NonceSize], ct[len(ct)-TagSize:]
	got, err := Reseal(k, nonce, tag, plaintext, ad)
	if err != nil || !bytes.Equal(got, ct) {
		t.Fatalf("Reseal = %x, %v; want Seal's %x", got, err, ct)
	}
	flip := func(b []byte) []byte {
		out := bytes.Clone(b)
		out[len(out)-1] ^= 1
		return out
	}
	other, _ := NewKey()
	for name, in := range map[string]struct {
		k                                 Key
		nonce, tag, plaintext, associated []byte
	}{
		"plaintext":     {k, nonce, tag, flip(plaintext), ad},
		"associated":    {k, nonce, tag, plaintext, flip(ad)},
		"nonce":         {k, flip(nonce), tag, plaintext, ad},
		"tag":           {k, nonce, flip(tag), plaintext, ad},
		"key":           {other, nonce, tag, plaintext, ad},
		"short nonce":   {k, nonce[1:], tag, plaintext, ad},
		"short tag":     {k, nonce, tag[1:], plaintext, ad},
		"empty content": {k, nonce, tag, nil, ad},
	} {
		if got, err := Reseal(in.k, in.nonce, in.tag, in.plaintext, in.associated); err != ErrAuth || got != nil {
			t.Errorf("%s differs: Reseal = %x, %v; want nil, ErrAuth", name, got, err)
		}
	}
}

func BenchmarkSeal(b *testing.B) {
	k, _ := NewKey()
	msg := make([]byte, 145) // one 100 B invoke + metadata
	ad := []byte("lcm/msg/inv/v1")
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Seal(k, msg, ad); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReseal re-derives a 256 B message's ciphertext from its nonce
// and tag (a cached reply resent to a retry).
func BenchmarkReseal(b *testing.B) {
	k, _ := NewKey()
	msg := make([]byte, 256)
	ad := []byte("lcm/msg/reply/v1")
	ct, _ := Seal(k, msg, ad)
	nonce, tag := ct[:NonceSize], ct[len(ct)-TagSize:]
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Reseal(k, nonce, tag, msg, ad); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSealUncached isolates the cost the cache removes: a fresh AES
// key schedule and GCM hash key per call.
func BenchmarkSealUncached(b *testing.B) {
	k, _ := NewKey()
	msg := make([]byte, 145)
	ad := []byte("lcm/msg/inv/v1")
	b.SetBytes(int64(len(msg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		gcm, err := newGCM(k)
		if err != nil {
			b.Fatal(err)
		}
		nonce := make([]byte, NonceSize, NonceSize+len(msg)+gcm.Overhead())
		gcm.Seal(nonce, nonce, msg, ad)
	}
}

func BenchmarkOpen(b *testing.B) {
	k, _ := NewKey()
	ct, _ := Seal(k, make([]byte, 145), nil)
	b.SetBytes(145)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Open(k, ct, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// Property: Seal/Open round-trips for arbitrary plaintext and associated
// data, and tampering with the associated data always fails.
func TestQuickRoundTrip(t *testing.T) {
	k, _ := NewKey()
	roundTrip := func(plaintext, associated []byte) bool {
		ct, err := Seal(k, plaintext, associated)
		if err != nil {
			return false
		}
		got, err := Open(k, ct, associated)
		if err != nil {
			return false
		}
		if !bytes.Equal(got, plaintext) {
			return false
		}
		// A different associated-data value must be rejected.
		_, err = Open(k, ct, append(bytes.Clone(associated), 0x01))
		return err == ErrAuth
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
