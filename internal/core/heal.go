package core

import (
	"errors"
	"fmt"

	"lcm/internal/aead"
	"lcm/internal/securechannel"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/wire"
)

// Chain-suffix healing (host-initiated, no authentication needed).
//
// When a replicated deployment restarts an enclave whose local delta log
// turned out stale — a crash that lost the fsynced tail, or an actual
// rollback of the primary's storage — the host fetches the missing chain
// suffix from a replica peer and offers it to the enclave through
// callChainSync. The call needs no authentication because the enclave
// accepts nothing on faith: every offered record must open under kP and
// chain onto the current head by predecessor hash, so the host (or a
// compromised peer) can at most offer the enclave its own authentic
// history back. Replaying a suffix is idempotent — already-folded records
// no longer chain onto the head and fold as zero.
//
// The acceptance policy deliberately differs from recovery-time
// foldDeltaLog in exactly one place: an offered record that fails
// authentication or does not chain onto the head stops the fold benignly
// (folded-so-far is returned) instead of halting. At recovery the local
// log is the host's claim about our own past, so a broken chain is proof
// of tampering; here the suffix is an unsolicited offer, and declining a
// bad offer must not poison a healthy enclave. Once a record authenticates
// *and* chains, however, it is our own sealed history, and any internal
// inconsistency in it reverts to the strict halt rules.

// EncodeChainSyncCall builds a chain-sync call offering a (possibly
// empty) suffix of sealed delta records. An empty offer is a probe: it
// folds nothing and returns the enclave's current chain position.
func EncodeChainSyncCall(records [][]byte) []byte {
	size := 5
	for _, rec := range records {
		size += 4 + len(rec)
	}
	w := wire.NewWriter(size)
	w.U8(callChainSync)
	w.U32(uint32(len(records)))
	for _, rec := range records {
		w.Var(rec)
	}
	return w.Bytes()
}

// ChainSyncResult reports the outcome of a chain-sync call: how many of
// the offered records folded, and the enclave's resulting chain position
// (sequence number, chain head hash, and the chain since its base blob:
// the blob's anchor and segment, the current segment, and the length in
// records — the host rewrites its segments to match and reseeds peers).
type ChainSyncResult struct {
	Folded   int
	Seq      uint64
	Head     [32]byte
	ChainLen int
	Base     [32]byte
	BaseSeg  uint64
	Seg      uint64
}

func encodeChainSyncResult(res *ChainSyncResult) []byte {
	w := wire.NewWriter(4 + 8 + 32 + 4 + 32 + 16)
	w.U32(uint32(res.Folded))
	w.U64(res.Seq)
	w.Bytes32(res.Head)
	w.U32(uint32(res.ChainLen))
	w.Bytes32(res.Base)
	w.U64(res.BaseSeg)
	w.U64(res.Seg)
	return w.Bytes()
}

// DecodeChainSyncResult parses a chain-sync response.
func DecodeChainSyncResult(b []byte) (*ChainSyncResult, error) {
	r := wire.NewReader(b)
	res := &ChainSyncResult{Folded: int(r.U32()), Seq: r.U64()}
	res.Head = r.Bytes32()
	res.ChainLen = int(r.U32())
	res.Base = r.Bytes32()
	res.BaseSeg = r.U64()
	res.Seg = r.U64()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode chain sync result: %w", err)
	}
	return res, nil
}

func (p *Trusted) handleChainSync(env tee.Env, records [][]byte) ([]byte, error) {
	if !p.provisioned() {
		return nil, ErrNotProvisioned
	}
	if p.resharded {
		return nil, ErrReshardedAway
	}
	if p.resh != nil {
		return nil, ErrResharding
	}
	res := &ChainSyncResult{}
	if p.deltaSvc != nil {
		for _, sealed := range records {
			// A record that is not ours or not on our head (stale, replayed)
			// declines the rest of the offer; one that is, folds strictly.
			refused, err := p.foldRecord(sealed, aead.Open)
			if refused != "" {
				break
			}
			if err != nil {
				return nil, err
			}
			res.Folded++
		}
		p.chargeFootprint(env)
	}
	res.Seq = p.t
	res.Head = p.chainPrev
	res.ChainLen = p.chainLen
	res.Base, res.BaseSeg, res.Seg = p.baseHead, p.baseSeg, p.seg
	return encodeChainSyncResult(res), nil
}

// Admin-driven recovery (Sec. 4.6.2's disaster case, extended). The
// admin retains kP precisely so a deployment whose original platform is
// gone — and with it the sealing key guarding the key blob — can be
// re-animated: attest a fresh enclave over the surviving storage, inject
// kP through the secure channel, and let the enclave recover the state
// blob and fold the delta chain exactly as a same-platform restart would.
// The recovered context re-seals the key blob under its own sealing key,
// so subsequent restarts no longer need the admin.

// ErrRecoverNoState reports a recovery call against storage that holds no
// state blob to recover.
var ErrRecoverNoState = errors.New("lcm: no state blob to recover")

// EncodeRecoverCall delivers the admin's sealed recovery payload.
func EncodeRecoverCall(senderPub, ciphertext []byte) []byte {
	w := wire.NewWriter(9 + len(senderPub) + len(ciphertext))
	w.U8(callRecover)
	w.Var(senderPub)
	w.Var(ciphertext)
	return w.Bytes()
}

func (p *Trusted) handleRecover(env tee.Env, senderPub, ct []byte) ([]byte, error) {
	if p.provisioned() {
		return nil, ErrAlreadyProvisioned
	}
	plain, err := p.channel.Open(senderPub, ct)
	if err != nil {
		return nil, err
	}
	r := wire.NewReader(plain)
	kpRaw := r.Var()
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("lcm: decode recover payload: %w", err)
	}
	kp, err := aead.KeyFromBytes(kpRaw)
	if err != nil {
		return nil, err
	}
	err = p.openChain(env, kp, ownSlot, func(reason string, err error) error {
		// Wrong key, foreign or malformed blob: refuse, do not halt —
		// the enclave adopted nothing yet.
		if errors.Is(err, stablestore.ErrNotFound) {
			return ErrRecoverNoState
		}
		return fmt.Errorf("lcm: recover: %s under offered kP: %w", reason, err)
	})
	if err != nil {
		return nil, err
	}
	// Recovery typically lands on a replacement platform whose counter did
	// not travel with the storage; rebase the beacon reservation on the
	// local counter (admin-authorized) and seal it before the key blob
	// commits the recovery.
	p.beaconTick = env.CounterRead(p.counterID())
	if err := p.sealBeaconTick(env); err != nil {
		return nil, fmt.Errorf("lcm: recover: seal beacon tick: %w", err)
	}
	sealedKey, err := p.sealKeyBlob()
	if err != nil {
		return nil, err
	}
	if err := env.Host().Store(SlotKeyBlob, sealedKey); err != nil {
		return nil, fmt.Errorf("lcm: store key blob: %w", err)
	}
	return nil, nil
}

// Recover re-animates a fresh, unprovisioned enclave over a deployment's
// surviving storage: remote attestation followed by kP injection. The
// enclave performs normal recovery (state blob + delta chain fold) under
// the injected key; a chain broken by tampering still halts it.
func (a *Admin) Recover(call CallFunc) error {
	if a.kp.IsZero() {
		return errors.New("lcm: admin has not bootstrapped")
	}
	channelPub, err := a.attest(call)
	if err != nil {
		return err
	}
	w := wire.NewWriter(4 + aead.KeySize)
	w.Var(a.kp.Bytes())
	senderPub, ct, err := securechannel.Seal(channelPub, w.Bytes())
	if err != nil {
		return fmt.Errorf("lcm: seal recover payload: %w", err)
	}
	if _, err := call(EncodeRecoverCall(senderPub, ct)); err != nil {
		return fmt.Errorf("lcm: recover call: %w", err)
	}
	return nil
}
