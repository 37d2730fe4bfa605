package replication

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"lcm/internal/aead"
	"lcm/internal/securechannel"
	"lcm/internal/tee"
	"lcm/internal/wire"
)

// Config parameterises a replica set.
type Config struct {
	// Peers are the replica enclaves (created and started by the host).
	Peers []*tee.Enclave
	// Quorum is the number of durable copies — including the primary's own
	// local log — required before a reply batch may be released. Quorum 1
	// degenerates to the unreplicated protocol.
	Quorum int
	// Attestation verifies peer quotes before provisioning.
	Attestation *tee.AttestationService
	// Retries is the number of append attempts per peer per group
	// (default 3).
	Retries int
	// Backoff is the base delay between attempts (default 200µs; doubled
	// per retry).
	Backoff time.Duration
	// BreakerThreshold is the number of consecutive peer failures that
	// opens the circuit breaker (default 3).
	BreakerThreshold int
	// BreakerProbe is the number of groups a broken peer is skipped for
	// before the next probe attempt (default 8).
	BreakerProbe int
}

// PeerStatus is one peer's view as seen by the set.
type PeerStatus struct {
	Running     bool
	Provisioned bool
	Broken      bool
	Count       int
	Head        [32]byte
}

type peer struct {
	enclave     *tee.Enclave
	provisioned bool
	fails       int
	skip        int
}

// Set is the host-side handle for one primary's replica set. It owns the
// replica-set key kR, tracks the primary's chain window since its last
// stored checkpoint, and fans appends out to the peers. All methods are
// serialised by mu: the committer is the only writer during normal
// operation, and healing runs under the same per-instance persistence
// lock. ReplicateGroup alone returns before it lets go of mu — it hands
// the lock to the peers still appending — so every other method is a
// barrier that first waits out the previous group's stragglers.
type Set struct {
	mu     sync.Mutex
	cfg    Config
	kr     aead.Key
	base   [32]byte
	head   [32]byte
	window [][]byte
	peers  []*peer
}

// ErrQuorum reports that a group could not be acknowledged by a write
// quorum. The records are locally durable and chain-consistent, so the
// correct reaction is to fail the batch retryably without restarting the
// enclave: retried invokes converge through the protocol's cached-reply
// path (Sec. 4.6.1).
var ErrQuorum = errors.New("replication: write quorum not reached; retry")

// NewSet creates a replica set over already-started peer enclaves.
func NewSet(cfg Config) (*Set, error) {
	if cfg.Quorum < 1 {
		return nil, fmt.Errorf("replication: quorum must be >= 1, got %d", cfg.Quorum)
	}
	if cfg.Quorum > len(cfg.Peers)+1 {
		return nil, fmt.Errorf("replication: quorum %d exceeds replica count %d", cfg.Quorum, len(cfg.Peers)+1)
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 3
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 200 * time.Microsecond
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerProbe <= 0 {
		cfg.BreakerProbe = 8
	}
	kr, err := aead.NewKey()
	if err != nil {
		return nil, err
	}
	s := &Set{cfg: cfg, kr: kr}
	for _, e := range cfg.Peers {
		s.peers = append(s.peers, &peer{enclave: e})
	}
	return s, nil
}

// Quorum returns the configured write quorum.
func (s *Set) Quorum() int { return s.cfg.Quorum }

// Replicas returns the total replica count including the primary.
func (s *Set) Replicas() int { return len(s.peers) + 1 }

// Head returns the chain head the set last replicated to.
func (s *Set) Head() [32]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.head
}

// Rebase re-anchors the set at head, the chain position a stored state
// blob of the primary covers, keeping the window's records after it (a
// head outside the window empties it), and rebuilds every reachable
// peer's mirror. A missed rebuild surfaces as ErrOutOfSync on the next
// append and is repaired by resync.
func (s *Set) Rebase(head [32]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if head == s.base {
		return
	}
	keep := 0
	for i := len(s.window) - 1; i >= 0; i-- {
		if sha256.Sum256(s.window[i]) == head {
			keep = len(s.window) - 1 - i
			break
		}
	}
	if keep == 0 {
		s.head = head
	}
	s.base = head
	s.window = append([][]byte(nil), s.window[len(s.window)-keep:]...)
	for _, p := range s.peers {
		if p.skip > 0 {
			continue
		}
		if err := s.syncPeer(p); err != nil {
			s.notePeerFailure(p)
		} else {
			p.fails = 0
		}
	}
}

// Reseed rebuilds the set's view from the primary's (healed) local chain
// and brings every peer to it in parallel, clearing breaker state first —
// healing is rare and wants maximal peer coverage. Each peer is probed
// with an authenticated empty append at the new head: one already there
// (every peer, on an honest restart) is left alone, and only a peer that
// answers out-of-sync or unprovisioned has its mirror rebuilt.
func (s *Set) Reseed(base [32]byte, records [][]byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.base = base
	s.window = append([][]byte(nil), records...)
	s.head = base
	for _, rec := range s.window {
		s.head = sha256.Sum256(rec)
	}
	for _, p := range s.peers {
		p.fails, p.skip = 0, 0
	}
	_, peersDone := s.fanOut(s.head, nil)
	peersDone.Wait()
}

// ReplicateGroup mirrors one committed group of sealed delta records to
// the peers and returns as soon as quorum-1 peers have acknowledged it
// (the primary's own local append is the first copy), or with ErrQuorum
// as soon as that many acknowledgements have become impossible. Peers
// still working on the group — stragglers — keep the set's lock until the
// last of them finishes, so the next group, and every other method, waits
// for them: per-peer append order and the single-writer rule hold exactly
// as if the call had waited for everyone.
func (s *Set) ReplicateGroup(records [][]byte) error {
	if len(records) == 0 {
		return nil
	}
	s.mu.Lock()
	prevHead := s.head
	s.window = append(s.window, records...)
	for _, rec := range records {
		s.head = sha256.Sum256(rec)
	}
	need := s.cfg.Quorum - 1
	if need <= 0 {
		s.mu.Unlock()
		return nil
	}
	acks, peersDone := s.fanOut(prevHead, records)
	go func() {
		peersDone.Wait()
		s.mu.Unlock()
	}()
	got := 0
	for left := len(s.peers); got < need && got+left >= need; left-- {
		if <-acks {
			got++
		}
	}
	if got < need {
		return fmt.Errorf("%w (%d/%d peer acks)", ErrQuorum, got, need)
	}
	return nil
}

// fanOut appends records at prevHead to every peer concurrently and
// returns the (buffered) channel their outcomes arrive on and the group
// that completes when the last peer has answered. Called with s.mu held,
// which must stay held until then: each goroutine owns its peer struct
// exclusively and reads the set's base and window.
func (s *Set) fanOut(prevHead [32]byte, records [][]byte) (<-chan bool, *sync.WaitGroup) {
	acks := make(chan bool, len(s.peers))
	wg := new(sync.WaitGroup)
	for _, p := range s.peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			acks <- s.appendPeer(p, prevHead, records)
		}(p)
	}
	return acks, wg
}

// appendPeer pushes one group to a peer with retry, backoff and circuit
// breaking. Out-of-sync or unprovisioned peers are resynchronised from
// the set's window; with no records the call is a probe that rebuilds
// only a diverged mirror. Called from fanOut.
func (s *Set) appendPeer(p *peer, prevHead [32]byte, records [][]byte) bool {
	if p.skip > 0 {
		p.skip--
		return false
	}
	var err error
	for attempt := 0; attempt < s.cfg.Retries; attempt++ {
		if attempt > 0 {
			time.Sleep(s.cfg.Backoff << (attempt - 1))
		}
		err = s.tryAppend(p, prevHead, records)
		if err == nil {
			p.fails = 0
			return true
		}
		if errors.Is(err, ErrOutOfSync) || errors.Is(err, ErrNotProvisioned) || errors.Is(err, aead.ErrAuth) {
			// The mirror diverged (peer crashed mid-set, restarted fresh,
			// or missed a reset). Rebuild it from the window; a successful
			// sync already covers this group.
			if errors.Is(err, ErrNotProvisioned) || errors.Is(err, aead.ErrAuth) {
				p.provisioned = false
			}
			if err = s.syncPeer(p); err == nil {
				p.fails = 0
				return true
			}
		}
	}
	s.notePeerFailure(p)
	return false
}

func (s *Set) notePeerFailure(p *peer) {
	p.fails++
	if p.fails >= s.cfg.BreakerThreshold {
		p.skip = s.cfg.BreakerProbe
	}
}

func (s *Set) tryAppend(p *peer, prevHead [32]byte, records [][]byte) error {
	if !p.provisioned {
		if err := s.provisionPeer(p); err != nil {
			return err
		}
	}
	call, err := EncodeAppendCall(s.kr, prevHead, records)
	if err != nil {
		return err
	}
	resp, err := p.enclave.Call(call)
	if err != nil {
		return err
	}
	_, err = OpenHeadAck(s.kr, resp)
	return err
}

// syncPeer rebuilds a peer's mirror to exactly the set's current view:
// reset to the base anchor, then append the whole window.
func (s *Set) syncPeer(p *peer) error {
	if !p.provisioned {
		if err := s.provisionPeer(p); err != nil {
			return err
		}
	}
	if err := s.resetPeer(p, s.base); err != nil {
		return err
	}
	if len(s.window) == 0 {
		return nil
	}
	return s.tryAppend(p, s.base, s.window)
}

func (s *Set) resetPeer(p *peer, base [32]byte) error {
	if !p.provisioned {
		return s.provisionPeer(p)
	}
	call, err := EncodeResetCall(s.kr, base)
	if err != nil {
		return err
	}
	resp, err := p.enclave.Call(call)
	if err != nil {
		return err
	}
	_, err = OpenHeadAck(s.kr, resp)
	return err
}

// provisionPeer attests a peer and injects the set key and current base
// anchor over the attested channel.
func (s *Set) provisionPeer(p *peer) error {
	nonce := make([]byte, 16)
	if _, err := rand.Read(nonce); err != nil {
		return err
	}
	resp, err := p.enclave.Call(EncodeAttestCall(nonce))
	if err != nil {
		return err
	}
	quote, err := DecodeQuote(resp)
	if err != nil {
		return err
	}
	if err := s.cfg.Attestation.Verify(quote, tee.Measure(Identity), nonce); err != nil {
		return err
	}
	pw := wire.NewWriter(4 + aead.KeySize + 32)
	pw.Var(s.kr.Bytes())
	pw.Bytes32(s.base)
	senderPub, ct, err := securechannel.Seal(quote.UserData, pw.Bytes())
	if err != nil {
		return err
	}
	resp, err = p.enclave.Call(EncodeProvisionCall(senderPub, ct))
	if err != nil {
		return err
	}
	if _, err := OpenHeadAck(s.kr, resp); err != nil {
		return err
	}
	p.provisioned = true
	return nil
}

// FetchSuffix asks every peer for the chain suffix beyond `from` and
// returns the longest one offered (nil if none). The caller must verify
// the records — they are only trustworthy after the enclave folds them
// against its sealed hash chain.
func (s *Set) FetchSuffix(from [32]byte) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best [][]byte
	for _, p := range s.peers {
		suffix, err := s.fetchPeerSuffix(p, from)
		if err != nil {
			continue
		}
		if len(suffix) > len(best) {
			best = suffix
		}
	}
	return best
}

func (s *Set) fetchPeerSuffix(p *peer, from [32]byte) ([][]byte, error) {
	call, err := EncodeSuffixCall(s.kr, from)
	if err != nil {
		return nil, err
	}
	resp, err := p.enclave.Call(call)
	if err != nil {
		return nil, err
	}
	return OpenSuffixAck(s.kr, resp)
}

// PeerStatuses probes every peer for its operational status.
func (s *Set) PeerStatuses() []PeerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PeerStatus, 0, len(s.peers))
	for _, p := range s.peers {
		st := PeerStatus{Running: p.enclave.Running(), Broken: p.skip > 0}
		if resp, err := p.enclave.Call(EncodeStatusCall()); err == nil {
			if dec, err := DecodeStatus(resp); err == nil {
				st.Provisioned = dec.Provisioned
				st.Count = dec.Count
				st.Head = dec.Head
			}
		}
		out = append(out, st)
	}
	return out
}

// Alive returns how many peers currently answer a status probe.
func (s *Set) Alive() int {
	n := 0
	for _, st := range s.PeerStatuses() {
		if st.Running {
			n++
		}
	}
	return n
}

// PeerEnclave exposes peer r's enclave for tests and attack tooling.
func (s *Set) PeerEnclave(r int) *tee.Enclave {
	if r < 0 || r >= len(s.peers) {
		return nil
	}
	return s.peers[r].enclave
}

// Stop stops every peer enclave, after any straggler has finished.
func (s *Set) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.peers {
		p.enclave.Stop()
	}
}
