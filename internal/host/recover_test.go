package host

import (
	"errors"
	"fmt"
	"testing"

	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/counter"
	"lcm/internal/kvs"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
)

// The stranded-escrow recovery path: a transfer frozen between prepare and
// settle by a source-shard halt is resolved after the operator reclaims
// the storage and the admin re-animates the shard with a fresh enclave
// (RecoverShard). The refolded chain includes the prepare, so the
// coordinator's abort refunds the escrow — conservation holds end to end.
func TestTransferStrandedEscrowRecoveredAndResolved(t *testing.T) {
	const shards = 2
	store := stablestore.NewRollbackStore(stablestore.NewMemStore())
	st := bankStack(t, store, shards, []uint32{1}, false)
	sess := st.sessionWith(1, counter.New())

	from := keyOnShard(0, shards, "src")
	to := keyOnShard(1, shards, "dst")
	if _, err := sess.Do(counter.Inc(from, 100)); err != nil {
		t.Fatal(err)
	}

	tx, err := sess.NewTransfer(from, to, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunTransfer(tx, stopAfter(client.TxPrepared)); !errors.Is(err, errStop) {
		t.Fatalf("run stopped with %v, want errStop", err)
	}

	// The source shard is rolled back and halts on the next contact —
	// the transfer is stranded at TxPrepared (TestTransferSourceHaltAfterPrepare).
	if err := st.server.AttackRollback(0, 1); err != nil {
		t.Fatalf("AttackRollback: %v", err)
	}
	if err := sess.AbortTransfer(tx, nil); err == nil {
		t.Fatal("abort succeeded against the rolled-back source shard")
	}
	if st.server.Enclave(0).HaltedErr() == nil {
		t.Fatal("source shard did not halt")
	}

	// Recovery: the operator reclaims the honest storage (the rollback was
	// a pinned view, the full chain survived) and replaces the sticky
	// halted enclave with a fresh one over it. Same platform, so the key
	// blob unseals and the chain refolds without the admin's kP.
	store.ClearAttack()
	if err := st.server.RecoverShard(0); err != nil {
		t.Fatalf("RecoverShard: %v", err)
	}

	// The failed abort attempt is still pending on the shard's context;
	// the recovered chain predates it, so the retry resolves it (Sec.
	// 4.6.1 case A) before the coordinator re-drives the abort.
	if _, err := sess.Recover(0); err != nil {
		t.Fatalf("recover pending op on the re-animated shard: %v", err)
	}
	// The refolded state contains the escrowed prepare; the coordinator
	// resolves the stranded transfer by aborting — the escrow refunds.
	if err := sess.AbortTransfer(tx, nil); err != nil {
		t.Fatalf("abort after recovery: %v", err)
	}
	if tx.Phase != client.TxAborted {
		t.Fatalf("phase = %d, want TxAborted", tx.Phase)
	}

	// Conservation: the funding is intact, no escrow residue anywhere.
	if got := bankRead(t, sess, from); got != 100 {
		t.Fatalf("source after refund = %d, want 100", got)
	}
	if got := bankRead(t, sess, to); got != 0 {
		t.Fatalf("target = %d, want 0", got)
	}
	for shard := 0; shard < shards; shard++ {
		if got := bankEscrow(t, sess, shard); got != 0 {
			t.Fatalf("shard %d escrow = %d after resolution", shard, got)
		}
	}
	// The recovered shard serves normally.
	if _, err := sess.Do(counter.Inc(from, 5)); err != nil {
		t.Fatalf("write on the recovered shard: %v", err)
	}
}

// Admin-driven cross-platform recovery (the disaster the admin retains kP
// for): the original platform is gone, so the surviving storage's key blob
// cannot unseal — a fresh enclave on a different platform recovers only
// after the admin injects kP over an attested channel. The recovered
// context reseals the key blob under the new platform, so later restarts
// stand alone.
func TestAdminRecoverReanimatesOnNewPlatform(t *testing.T) {
	originStore, targetStore := stablestore.NewMemStore(), stablestore.NewMemStore()
	m := newMigrateStack(t, originStore, targetStore, []uint32{1})
	target, admin := m.target, m.admin
	sess := m.session(1)
	for i := 1; i <= 3; i++ {
		put(t, sess, "k", fmt.Sprintf("v%d", i))
	}

	// The origin platform dies; only its storage survives, shipped to the
	// target host. No migration ever ran.
	if err := CopyStorage(originStore, targetStore); err != nil {
		t.Fatalf("CopyStorage: %v", err)
	}
	// Restart so the target enclave's recovery sees the copied blobs: the
	// key blob is sealed under the origin platform and must not unseal.
	if err := target.Enclave(0).Restart(); err != nil {
		t.Fatal(err)
	}
	status, err := core.QueryStatus(target.ECall)
	if err != nil {
		t.Fatal(err)
	}
	if status.Provisioned {
		t.Fatal("foreign key blob unsealed on the wrong platform")
	}

	if err := admin.Recover(target.ECall); err != nil {
		t.Fatalf("Admin.Recover: %v", err)
	}
	status, err = core.QueryStatus(target.ECall)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Provisioned || status.Seq != 3 {
		t.Fatalf("recovered status = %+v, want provisioned seq=3", status)
	}

	// The key blob was resealed under the new platform: a plain restart
	// recovers without the admin.
	if err := target.Enclave(0).Restart(); err != nil {
		t.Fatal(err)
	}
	status, err = core.QueryStatus(target.ECall)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Provisioned || status.Seq != 3 {
		t.Fatalf("status after standalone restart = %+v, want provisioned seq=3", status)
	}

	// A tampered chain still halts the recovering enclave: recovery is a
	// key injection, not a trust bypass.
	tampered := stablestore.NewMemStore()
	if err := CopyStorage(originStore, tampered); err != nil {
		t.Fatal(err)
	}
	records, err := tampered.LoadLog(core.SlotDeltaLog)
	if err != nil || len(records) < 2 {
		t.Fatalf("copied log = %d records, %v", len(records), err)
	}
	if err := tampered.TruncateLog(core.SlotDeltaLog); err != nil {
		t.Fatal(err)
	}
	// Drop a middle record: the fold must hit a broken link.
	if err := tampered.AppendGroup(core.SlotDeltaLog, append([][]byte{records[0]}, records[2:]...)); err != nil {
		t.Fatal(err)
	}
	fresh := freshServerOn(t, "dc-fresh", tampered, admin)
	if err := admin.Recover(fresh.ECall); err == nil {
		t.Fatal("recovery over a tampered chain succeeded")
	}
	if fresh.Enclave(0).HaltedErr() == nil {
		t.Fatal("recovering enclave did not halt on the broken chain")
	}
}

// freshServerOn starts an unprovisioned single-shard server on a new
// platform registered with the admin's attestation service.
func freshServerOn(t *testing.T, platformID string, store stablestore.Store, admin *core.Admin) *Server {
	t.Helper()
	platform, err := tee.NewPlatform(platformID)
	if err != nil {
		t.Fatal(err)
	}
	admin.Attestation().Register(platform)
	srv, err := New(Config{
		Platform: platform,
		Factory: core.NewTrustedFactory(core.TrustedConfig{
			ServiceName: "kvs",
			NewService:  kvs.Factory(),
			Attestation: admin.Attestation(),
		}),
		Store:     store,
		BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Shutdown)
	return srv
}
