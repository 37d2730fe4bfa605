package core

import (
	"errors"
	"testing"

	"lcm/internal/counter"
	"lcm/internal/service"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
)

// bankRig deploys the LCM protocol over the counter/bank service,
// demonstrating the framework's generality over the functionality F
// (Sec. 5.2: any operation processor + serialization interface).
func bankRig(t *testing.T, clientIDs []uint32) *rig {
	t.Helper()
	attestation := tee.NewAttestationService()
	platform, err := tee.NewPlatform("plat-bank")
	if err != nil {
		t.Fatal(err)
	}
	attestation.Register(platform)
	storage := stablestore.NewRollbackStore(stablestore.NewMemStore())
	factory := NewTrustedFactory(TrustedConfig{
		ServiceName: "bank",
		NewService:  func() service.Service { return counter.New() },
		Attestation: attestation,
	})
	enclave := platform.NewEnclave(factory, storage)
	if err := enclave.Start(); err != nil {
		t.Fatal(err)
	}
	admin := NewAdmin(attestation, ProgramIdentity("bank"))
	if err := admin.Bootstrap(enclave.Call, clientIDs); err != nil {
		t.Fatal(err)
	}
	clients := make(map[uint32]*Client, len(clientIDs))
	for _, id := range clientIDs {
		clients[id] = NewClient(id, admin.CommunicationKey())
	}
	return &rig{
		t:           t,
		platform:    platform,
		attestation: attestation,
		storage:     storage,
		enclave:     enclave,
		admin:       admin,
		clients:     clients,
	}
}

func bankResult(t *testing.T, res *Result) counter.Result {
	t.Helper()
	out, err := counter.DecodeResult(res.Value)
	if err != nil {
		t.Fatalf("decode bank result: %v", err)
	}
	return out
}

func TestBankServiceUnderLCM(t *testing.T) {
	r := bankRig(t, []uint32{1, 2})

	res, err := r.do(1, counter.Inc("alice", 100))
	if err != nil {
		t.Fatal(err)
	}
	if b := bankResult(t, res); b.Balance != 100 {
		t.Fatalf("balance = %d", b.Balance)
	}
	res, err = r.do(2, counter.Transfer("alice", "bob", 30))
	if err != nil {
		t.Fatal(err)
	}
	if b := bankResult(t, res); !b.OK || b.Balance != 70 {
		t.Fatalf("transfer = %+v", b)
	}

	// State survives an honest restart with the balances intact.
	if err := r.enclave.Restart(); err != nil {
		t.Fatal(err)
	}
	res, err = r.do(1, counter.Read("bob"))
	if err != nil {
		t.Fatal(err)
	}
	if b := bankResult(t, res); b.Balance != 30 {
		t.Fatalf("bob after restart = %d", b.Balance)
	}
}

// The double-spend the intro motivates: a rollback that resurrects a spent
// balance is caught before the attacker can cash out twice.
func TestBankRollbackDoubleSpendDetected(t *testing.T) {
	r := bankRig(t, []uint32{1})

	if _, err := r.do(1, counter.Inc("acct", 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.do(1, counter.Transfer("acct", "merchant", 100)); err != nil {
		t.Fatal(err)
	}

	// The malicious host restores the pre-spend state. The bank persists
	// through the delta log, so the attack truncates the spend's record.
	if !r.storage.RollbackLogBy(SlotDeltaLog, 1) {
		t.Fatal("rollback injection failed")
	}
	if err := r.enclave.Restart(); err != nil {
		t.Fatal(err)
	}
	// The balance *looks* restored inside the rolled-back enclave, but
	// the client's next operation exposes the fork of history.
	_, err := r.do(1, counter.Transfer("acct", "merchant2", 100))
	if !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("double spend attempt = %v, want enclave halt", err)
	}
}

// Migration works identically for any service: the bank moves platforms
// with its balances, and its client moves across the handoff.
func TestBankMigration(t *testing.T) {
	r := bankRig(t, []uint32{1})
	if _, err := r.do(1, counter.Inc("acct", 55)); err != nil {
		t.Fatal(err)
	}

	target, err := tee.NewPlatform("plat-bank-2")
	if err != nil {
		t.Fatal(err)
	}
	r.attestation.Register(target)
	tr, err := r.migrate(target, stablestore.NewRollbackStore(stablestore.NewMemStore()), TrustedConfig{
		ServiceName: "bank",
		NewService:  func() service.Service { return counter.New() },
	})
	if err != nil {
		t.Fatalf("migrate: %v", err)
	}
	res, err := tr.do(1, counter.Read("acct"))
	if err != nil {
		t.Fatal(err)
	}
	if b := bankResult(t, res); b.Balance != 55 {
		t.Fatalf("migrated balance = %d", b.Balance)
	}
}

// Two different services must never share sealing identity: a bank enclave
// cannot unseal a kvs enclave's state even on the same platform (the
// measurement differs, so get-key differs).
func TestServiceIdentitySeparation(t *testing.T) {
	r := newRig(t, []uint32{1}) // kvs rig
	r.mustPut(1, "k", "v")

	factory := NewTrustedFactory(TrustedConfig{
		ServiceName: "bank",
		NewService:  func() service.Service { return counter.New() },
		Attestation: r.attestation,
	})
	// Same platform, same storage (with the kvs enclave's sealed blobs),
	// different program.
	bankEnclave := r.platform.NewEnclave(factory, r.storage)
	if err := bankEnclave.Start(); err != nil {
		t.Fatalf("bank enclave start: %v", err)
	}
	// It must come up unprovisioned (cannot open the foreign key blob) —
	// not with the kvs state, and not halted (the blob is simply not
	// openable with its sealing key, like the migration case).
	status, err := QueryStatus(bankEnclave.Call)
	if err != nil {
		t.Fatal(err)
	}
	if status.Provisioned {
		t.Fatal("bank enclave adopted the kvs enclave's sealed state")
	}
}
