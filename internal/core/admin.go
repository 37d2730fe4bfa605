package core

import (
	"errors"
	"fmt"

	"lcm/internal/aead"
	"lcm/internal/securechannel"
	"lcm/internal/tee"
)

// CallFunc performs one ecall into a trusted execution context. Hosts
// provide it to admins; in a distributed deployment it travels over the
// network through the (untrusted) server.
type CallFunc func(payload []byte) ([]byte, error)

// Admin is the special client of Sec. 4.3 that bootstraps a trusted
// execution context: it verifies remote attestation, generates the
// protocol keys, injects them over a secure channel, and distributes the
// communication key to the clients. It also performs the group-membership
// changes of Sec. 4.6.3.
type Admin struct {
	attestation *tee.AttestationService
	measurement tee.Measurement

	kp       aead.Key
	kc       aead.Key
	adminSeq uint64

	// reshCh is the pending reshard channel: an ephemeral responder whose
	// public key ReshardChannel sealed under kP, awaiting the lead's
	// admin handoff (AdoptReshard).
	reshCh *securechannel.Responder
}

// NewAdmin creates an admin that will only trust enclaves running the
// program with the given identity, verified against the attestation
// service.
func NewAdmin(attestation *tee.AttestationService, programIdentity string) *Admin {
	return &Admin{
		attestation: attestation,
		measurement: tee.Measure(programIdentity),
	}
}

// CommunicationKey returns kC for distribution to the clients (over
// secure channels, outside this package's scope).
func (a *Admin) CommunicationKey() aead.Key { return a.kc }

// StateKey returns kP; the admin retains it for administrative messages
// and for disaster recovery (Recover, when the origin platform is lost).
func (a *Admin) StateKey() aead.Key { return a.kp }

// Attestation returns the attestation service this admin verifies quotes
// against — operators registering a fresh recovery platform need it.
func (a *Admin) Attestation() *tee.AttestationService { return a.attestation }

// attest runs the remote-attestation handshake against call and returns
// the enclave's verified secure-channel public key.
func (a *Admin) attest(call CallFunc) ([]byte, error) {
	nonce, err := randNonce()
	if err != nil {
		return nil, err
	}
	resp, err := call(EncodeAttestCall(nonce))
	if err != nil {
		return nil, fmt.Errorf("lcm: attest call: %w", err)
	}
	quote, err := DecodeQuote(resp)
	if err != nil {
		return nil, err
	}
	if err := a.attestation.Verify(*quote, a.measurement, nonce); err != nil {
		return nil, fmt.Errorf("lcm: attestation: %w", err)
	}
	return quote.UserData, nil
}

// Bootstrap performs phases 2 and 3 of Sec. 4.3 against a freshly created
// trusted execution context: remote attestation, key generation, and key
// injection together with the initial client group.
func (a *Admin) Bootstrap(call CallFunc, clients []uint32) error {
	if len(clients) == 0 {
		return errors.New("lcm: bootstrap requires at least one client")
	}
	channelPub, err := a.attest(call)
	if err != nil {
		return err
	}
	kp, err := aead.NewKey()
	if err != nil {
		return err
	}
	kc, err := aead.NewKey()
	if err != nil {
		return err
	}
	payload := provisionPayload{KP: kp.Bytes(), KC: kc.Bytes(), Clients: clients}
	senderPub, ct, err := securechannel.Seal(channelPub, payload.encode())
	if err != nil {
		return fmt.Errorf("lcm: seal provision: %w", err)
	}
	if _, err := call(EncodeProvisionCall(senderPub, ct)); err != nil {
		return fmt.Errorf("lcm: provision call: %w", err)
	}
	a.kp, a.kc = kp, kc
	a.adminSeq = 0
	return nil
}

// ReshardChannel mints an ephemeral channel on which the admin will
// receive the next generation's keys during a reshard, and returns its
// public key sealed under the current kP. The host relays the blob in
// the BEGIN call; the lead opens it with its own kP — which the host
// does not hold — so a successful open proves the channel terminates at
// the admin, not at the host.
func (a *Admin) ReshardChannel() ([]byte, error) {
	if a.kp.IsZero() {
		return nil, errors.New("lcm: admin has not bootstrapped")
	}
	resp, err := securechannel.NewResponder()
	if err != nil {
		return nil, err
	}
	sealed, err := aead.Seal(a.kp, resp.PublicKey(), []byte(adReshardAdminCh))
	if err != nil {
		return nil, fmt.Errorf("lcm: seal reshard admin channel: %w", err)
	}
	a.reshCh = resp
	return sealed, nil
}

// AdoptReshard opens the lead's admin handoff (produced at BEGIN against
// this admin's ReshardChannel) and returns one admin per new shard,
// each holding that shard's fresh (kP, kC) and the carried-over client
// group. The receiving admin's own keys are untouched — until the
// clients adopt the new generation the old one is still the deployment
// of record.
func (a *Admin) AdoptReshard(p SealedPayload) ([]*Admin, error) {
	if a.reshCh == nil {
		return nil, errors.New("lcm: no outstanding reshard channel")
	}
	if len(p.SenderPub) == 0 && len(p.Ciphertext) == 0 {
		return nil, errors.New("lcm: reshard produced no admin handoff")
	}
	plain, err := a.reshCh.Open(p.SenderPub, p.Ciphertext)
	if err != nil {
		return nil, fmt.Errorf("lcm: open reshard admin handoff: %w", err)
	}
	h, err := decodeReshardAdminHandoff(plain)
	if err != nil {
		return nil, err
	}
	if h.NewShards < 1 || len(h.KPs) != h.NewShards || len(h.KCs) != h.NewShards {
		return nil, fmt.Errorf("lcm: reshard admin handoff covers %d/%d key pairs for %d shards",
			len(h.KPs), len(h.KCs), h.NewShards)
	}
	admins := make([]*Admin, h.NewShards)
	for j := range admins {
		kp, err := aead.KeyFromBytes(h.KPs[j])
		if err != nil {
			return nil, fmt.Errorf("lcm: reshard admin handoff kP %d: %w", j, err)
		}
		kc, err := aead.KeyFromBytes(h.KCs[j])
		if err != nil {
			return nil, fmt.Errorf("lcm: reshard admin handoff kC %d: %w", j, err)
		}
		admins[j] = &Admin{
			attestation: a.attestation,
			measurement: a.measurement,
			kp:          kp,
			kc:          kc,
		}
	}
	a.reshCh = nil
	return admins, nil
}

// sendAdminOp seals and delivers one membership change.
func (a *Admin) sendAdminOp(call CallFunc, op *AdminOp) error {
	if a.kp.IsZero() {
		return errors.New("lcm: admin has not bootstrapped")
	}
	op.Seq = a.adminSeq + 1
	ct, err := aead.Seal(a.kp, op.encode(), []byte(adAdminMsg))
	if err != nil {
		return fmt.Errorf("lcm: seal admin op: %w", err)
	}
	if _, err := call(EncodeAdminCall(ct)); err != nil {
		return fmt.Errorf("lcm: admin call: %w", err)
	}
	a.adminSeq = op.Seq
	return nil
}

// Join admits a client to the group through the churn-era admin path: a
// V-entry upsert, with no kC rotation (the joiner receives the current kC
// from the admin out of band). The enclave persists the change with a
// full seal. Idempotent: joining a present member succeeds. Join always
// reaches the enclave, since only the enclave sees client-originated
// churn.
func (a *Admin) Join(call CallFunc, id uint32) error {
	return a.sendAdminOp(call, &AdminOp{Kind: adminAddClient, ClientID: id})
}

// Leave retires a client voluntarily: its V entry is tombstoned without
// rotating kC — a cooperative departure needs no cut-off, and skipping
// the rotation keeps leaves O(change) instead of O(group). The last
// member cannot leave.
func (a *Admin) Leave(call CallFunc, id uint32) error {
	return a.sendAdminOp(call, &AdminOp{Kind: adminLeaveClient, ClientID: id})
}

// Evict stages a forcible removal for the next epoch seal. Staged
// evictions are applied as one batch there, behind a single in-enclave
// kC rotation that cuts off every evictee at once (Sec. 4.6.3's
// rotation, amortized); the admin learns the rotated key via Members.
func (a *Admin) Evict(call CallFunc, id uint32) error {
	return a.sendAdminOp(call, &AdminOp{Kind: adminEvictClient, ClientID: id})
}

// Members fetches the trusted context's authoritative group view — the
// membership, epoch, evictions and the current kC — and adopts its kC:
// eviction-seal kC rotations happen without the admin, so this is how it
// learns the rotated key. The admin keeps no copy of V; this is the view.
func (a *Admin) Members(call CallFunc) (*GroupInfo, error) {
	if a.kp.IsZero() {
		return nil, errors.New("lcm: admin has not bootstrapped")
	}
	info, err := QueryGroupInfo(call, a.kp)
	if err != nil {
		return nil, err
	}
	kc, err := aead.KeyFromBytes(info.KC)
	if err != nil {
		return nil, fmt.Errorf("lcm: group info kC: %w", err)
	}
	a.kc = kc
	return info, nil
}

// SealEpoch asks the trusted context to seal a membership epoch now —
// what deployments without a host-side epoch ticker use. The host is
// responsible for persisting the seal's record (hosts built on
// internal/host route it automatically).
func (a *Admin) SealEpoch(call CallFunc) error {
	if _, err := call(EncodeEpochSealCall()); err != nil {
		return fmt.Errorf("lcm: epoch seal call: %w", err)
	}
	return nil
}

// QueryStatus fetches a trusted context's status.
func QueryStatus(call CallFunc) (*Status, error) {
	resp, err := call(EncodeStatusCall())
	if err != nil {
		return nil, err
	}
	return DecodeStatus(resp)
}
