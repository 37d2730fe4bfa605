package host

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"lcm/internal/aead"
	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
)

// migrateStack is a bootstrapped single-shard origin deployment and a
// fresh destination server on another platform, listening on "origin"
// and "target" of one network.
type migrateStack struct {
	t           *testing.T
	net         *transport.InmemNetwork
	attestation *tee.AttestationService
	origin      *Server
	target      *Server
	admin       *core.Admin
	kc          aead.Key
}

// newMigrateStack deploys the origin over originStore, bootstraps client
// ids and starts the destination over targetStore; opts tune both
// servers' configs.
func newMigrateStack(t *testing.T, originStore, targetStore stablestore.Store, ids []uint32, opts ...func(*Config)) *migrateStack {
	t.Helper()
	m := &migrateStack{t: t, net: transport.NewInmemNetwork(), attestation: tee.NewAttestationService()}
	m.origin = m.server("dc-origin", originStore, "origin", true, realTicker, opts...)
	m.admin = core.NewAdmin(m.attestation, core.ProgramIdentity("kvs"))
	if err := m.admin.Bootstrap(m.origin.ECall, ids); err != nil {
		t.Fatal(err)
	}
	m.kc = m.admin.CommunicationKey()
	m.target = m.server("dc-target", targetStore, "target", true, realTicker, opts...)
	return m
}

// server starts a kvs server on a fresh platform (registered with the
// attestation root if register) over store, serving endpoint.
func (m *migrateStack) server(platformID string, store stablestore.Store, endpoint string, register bool,
	newTicker func(time.Duration) (<-chan time.Time, func()), opts ...func(*Config)) *Server {
	m.t.Helper()
	platform, err := tee.NewPlatform(platformID)
	if err != nil {
		m.t.Fatal(err)
	}
	if register {
		m.attestation.Register(platform)
	}
	cfg := Config{
		Platform: platform,
		Factory: core.NewTrustedFactory(core.TrustedConfig{
			ServiceName: "kvs",
			NewService:  kvs.Factory(),
			Attestation: m.attestation,
		}),
		Store:     store,
		BatchSize: 4,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	srv, err := newServer(cfg, newTicker)
	if err != nil {
		m.t.Fatal(err)
	}
	listener, err := m.net.Listen(endpoint)
	if err != nil {
		m.t.Fatal(err)
	}
	go srv.Serve(listener)
	m.t.Cleanup(func() {
		listener.Close()
		srv.Shutdown()
	})
	return srv
}

// session opens client id's session on the origin.
func (m *migrateStack) session(id uint32) *client.ShardedSession {
	m.t.Helper()
	conn, err := m.net.Dial("origin")
	if err != nil {
		m.t.Fatal(err)
	}
	sess := client.NewSharded(conn, id, []aead.Key{m.kc}, kvs.New(), client.Config{Timeout: 5 * time.Second})
	m.t.Cleanup(func() { sess.Close() })
	return sess
}

// refresh walks sess across the next generation boundary onto the target.
func (m *migrateStack) refresh(sess *client.ShardedSession) (*client.ShardedSession, []client.ReshardPending, error) {
	return refreshVia(sess, func() (transport.Conn, error) { return m.net.Dial("target") })
}

// put writes key=value through sess and fails the test on an error.
func put(t *testing.T, sess *client.ShardedSession, key, value string) {
	t.Helper()
	if _, err := sess.Do(kvs.Put(key, value)); err != nil {
		t.Fatal(err)
	}
}

// get reads key through sess and requires value.
func get(t *testing.T, sess *client.ShardedSession, key, value string) {
	t.Helper()
	res, err := sess.Do(kvs.Get(key))
	if err != nil {
		t.Fatal(err)
	}
	if kv, _ := kvs.DecodeResult(res.Value); !kv.Found || string(kv.Value) != value {
		t.Fatalf("%q = %q (found %v), want %q", key, kv.Value, kv.Found, value)
	}
}

// MigrateTo stages the origin's sealed blob + delta chain into the
// destination's own storage (CopyStorage, no shared storage), the target
// folds it, and the client walks the boundary onto the target with the
// value it wrote on the origin.
func TestCopyStorageEnablesChainMigration(t *testing.T) {
	targetStore := stablestore.NewMemStore()
	m := newMigrateStack(t, stablestore.NewMemStore(), targetStore, []uint32{1})
	sess := m.session(1)
	for i := 1; i <= 4; i++ {
		put(t, sess, "k", fmt.Sprintf("v%d", i))
	}
	stats, err := m.origin.MigrateTo(m.target, nil)
	if err != nil {
		t.Fatalf("MigrateTo: %v", err)
	}
	if stats.Gen != 1 || stats.OldShards != 1 || stats.NewShards != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	staged, _ := targetStore.LoadLog(stablestore.NamespacedSlot(genShardPrefix(1, 0), core.ReshardSrcSlot(0, core.SlotDeltaLog)))
	if len(staged) != 4 {
		t.Fatalf("staged chain = %d records, want 4 (the test must move a delta chain)", len(staged))
	}
	next, _, err := m.refresh(sess)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	get(t, next, "k", "v4")
	if m.origin.Gen() != 1 || m.target.Gen() != 1 {
		t.Fatalf("generations: origin %d, target %d; want 1, 1", m.origin.Gen(), m.target.Gen())
	}
}

// truncatingStore loses the last record of every log group staged under
// a reshard source slot: a host that lost the tail of the chain while
// shipping it.
type truncatingStore struct{ *stablestore.MemStore }

func (s truncatingStore) AppendGroup(slot string, records [][]byte) error {
	if strings.Contains(slot, "/src") && len(records) > 0 {
		records = records[:len(records)-1]
	}
	return s.MemStore.AppendGroup(slot, records)
}

// A truncated staged copy is refused at import: the fold does not reach
// the head the origin pinned in its piece. The move is past its point of
// no return: the destination adopted nothing, and no target enclave the
// attempt started is left running.
func TestCopyStorageTruncatedCopyRefused(t *testing.T) {
	m := newMigrateStack(t, stablestore.NewMemStore(), truncatingStore{stablestore.NewMemStore()}, []uint32{1})
	sess := m.session(1)
	for i := 1; i <= 4; i++ {
		put(t, sess, "k", fmt.Sprintf("v%d", i))
	}
	var started []*tee.Enclave
	newTargetEnclave = func(p *tee.Platform, f tee.ProgramFactory, h tee.HostServices) *tee.Enclave {
		started = append(started, p.NewEnclave(f, h))
		return started[len(started)-1]
	}
	t.Cleanup(func() { newTargetEnclave = (*tee.Platform).NewEnclave })
	_, err := m.origin.MigrateTo(m.target, nil)
	if err == nil || !strings.Contains(err.Error(), "staged chain does not reach the source's exported head") {
		t.Fatalf("MigrateTo over a truncated copy = %v", err)
	}
	if len(started) == 0 {
		t.Fatal("the move started no target enclave")
	}
	for _, e := range started {
		if e.Running() {
			t.Fatalf("the failed move left its target %s running", e.Label())
		}
	}
	status, err := core.QueryStatus(m.target.ECall)
	if err != nil {
		t.Fatal(err)
	}
	if status.Provisioned || m.target.Gen() != 0 {
		t.Fatalf("target adopted a truncated copy: %+v at generation %d", status, m.target.Gen())
	}
}

// After the move the origin's enclave refuses with ErrReshardedAway and
// its tick loop exits; the destination's replaced unprovisioned enclave
// stops ticking too, and the target beacons on its own platform's counter.
func TestMigrateToRetiresOrigin(t *testing.T) {
	const beaconEvery = time.Hour
	m := &migrateStack{t: t, net: transport.NewInmemNetwork(), attestation: tee.NewAttestationService()}
	beacons := func(cfg *Config) { cfg.BeaconInterval = beaconEvery }
	originClock, targetClock := newFakeClock(), newFakeClock()
	m.origin = m.server("dc-origin", stablestore.NewMemStore(), "origin", true, originClock.newTicker, beacons)
	admin := core.NewAdmin(m.attestation, core.ProgramIdentity("kvs"))
	if err := admin.Bootstrap(m.origin.ECall, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	m.kc = admin.CommunicationKey()
	m.target = m.server("dc-target", stablestore.NewMemStore(), "target", true, targetClock.newTicker, beacons)
	sess := m.session(1)
	put(t, sess, "k", "v")
	originClock.fire(t, beaconEvery, 0)
	awaitBeacons(t, m.origin, 1)

	if _, err := m.origin.MigrateTo(m.target, nil); err != nil {
		t.Fatalf("MigrateTo: %v", err)
	}
	if _, err := m.origin.ECall(core.EncodeBeaconCall()); !errors.Is(err, core.ErrReshardedAway) {
		t.Fatalf("origin beacon after the move = %v, want ErrReshardedAway", err)
	}
	status, err := core.QueryStatus(m.origin.ECall)
	if err != nil || !status.Retired {
		t.Fatalf("origin status = %+v, %v; want retired", status, err)
	}
	for _, clock := range []*fakeClock{originClock, targetClock} {
		clock.fire(t, beaconEvery, 0)
		select {
		case <-clock.ticker(t, beaconEvery, 0).stopped:
		case <-time.After(5 * time.Second):
			t.Fatal("a retired instance's tick loop kept running")
		}
	}
	next, _, err := m.refresh(sess)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	targetClock.fire(t, beaconEvery, 1)
	awaitBeacons(t, m.target, 1)
	get(t, next, "k", "v")
}

// awaitBeacons waits until srv's shard 0 committed n beacons: a fired
// tick's beacon commits after the tick loop took the tick.
func awaitBeacons(t *testing.T, srv *Server, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		status, err := core.QueryStatus(srv.ECall)
		if err != nil {
			t.Fatal(err)
		}
		if status.BeaconSeq == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("beacons = %d, want %d", status.BeaconSeq, n)
		}
	}
}

// A destination on a platform the attestation root does not know fails
// the lead's quote check: the move aborts and the origin serves on.
func TestMigrateToUnregisteredPlatformAborts(t *testing.T) {
	m := newMigrateStack(t, stablestore.NewMemStore(), stablestore.NewMemStore(), []uint32{1})
	rogue := m.server("dc-rogue", stablestore.NewMemStore(), "rogue", false, realTicker)
	sess := m.session(1)
	put(t, sess, "k", "v1")
	if _, err := m.origin.MigrateTo(rogue, nil); !errors.Is(err, core.ErrReshardAttestation) {
		t.Fatalf("MigrateTo an unregistered platform = %v, want ErrReshardAttestation", err)
	}
	put(t, sess, "k", "v2")
	if _, err := sess.FetchReshardInfo(); !errors.Is(err, client.ErrNoReshard) {
		t.Fatalf("reshard info after the abort = %v, want ErrNoReshard", err)
	}
	if m.origin.Gen() != 0 || rogue.Gen() != 0 {
		t.Fatalf("generations moved on an aborted migration: origin %d, rogue %d", m.origin.Gen(), rogue.Gen())
	}
}

// MigrateTo refuses a destination that is not fresh: one whose enclave
// holds a deployment, or one past generation 0.
func TestMigrateToRefusesUsedDestination(t *testing.T) {
	m := newMigrateStack(t, stablestore.NewMemStore(), stablestore.NewMemStore(), []uint32{1})
	if err := core.NewAdmin(m.attestation, core.ProgramIdentity("kvs")).Bootstrap(m.target.ECall, []uint32{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.origin.MigrateTo(m.target, nil); err == nil || !strings.Contains(err.Error(), "already provisioned") {
		t.Fatalf("MigrateTo a provisioned server = %v", err)
	}
	if _, err := m.origin.MigrateTo(m.origin, nil); err == nil {
		t.Fatal("MigrateTo the origin itself succeeded")
	}
	if _, err := m.target.Reshard(2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.origin.MigrateTo(m.target, nil); err == nil || !strings.Contains(err.Error(), "not fresh") {
		t.Fatalf("MigrateTo a server at generation 1 = %v", err)
	}
	sess := m.session(1)
	put(t, sess, "k", "v")
}

// An operation that executed on the origin right before the freeze, whose
// reply was lost, is recovered from the handoff. The client ran a plain
// Session; its state resumes as a one-shard sharded session, which walks
// the boundary.
func TestMigrateToRecoversExecutedOp(t *testing.T) {
	m := newMigrateStack(t, stablestore.NewMemStore(), stablestore.NewMemStore(), []uint32{1})
	conn, err := m.net.Dial("origin")
	if err != nil {
		t.Fatal(err)
	}
	link := &dropNextReply{Conn: conn}
	sess := client.New(link, 1, m.kc, client.Config{Timeout: 200 * time.Millisecond})
	defer sess.Close()
	if _, err := sess.Do(kvs.Put("doc", "v1")); err != nil {
		t.Fatal(err)
	}
	link.armed.Store(true)
	if _, err := sess.Do(kvs.Put("doc", "v2")); err == nil {
		t.Fatal("a put whose reply was lost succeeded")
	}
	if _, err := m.origin.MigrateTo(m.target, nil); err != nil {
		t.Fatalf("MigrateTo: %v", err)
	}
	if conn, err = m.net.Dial("origin"); err != nil {
		t.Fatal(err)
	}
	old, err := client.ResumeSharded(conn, []*core.ClientState{sess.State()}, []aead.Key{m.kc}, kvs.New(), client.Config{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	next, pending, err := m.refresh(old)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	defer next.Close()
	if len(pending) != 1 || !pending[0].Executed || pending[0].Result == nil || pending[0].Result.Seq != 2 {
		t.Fatalf("pending = %+v, want the executed put (seq 2) with its result", pending)
	}
	get(t, next, "doc", "v2")
}

// A rollback of the origin during the move: the host restarts it over a
// chain missing its last two records before the migration, so the
// handoff pins a stale V, and the client's refresh refuses the new
// generation with a detected violation.
func TestMigrateToRollbackDuringMoveDetected(t *testing.T) {
	m := newMigrateStack(t, stablestore.NewRollbackStore(stablestore.NewMemStore()), stablestore.NewMemStore(), []uint32{1})
	sess := m.session(1)
	for i := 1; i <= 4; i++ {
		put(t, sess, "doc", fmt.Sprintf("draft-%d", i))
	}
	if err := m.origin.AttackRollback(0, 2); err != nil {
		t.Fatalf("AttackRollback: %v", err)
	}
	if _, err := m.origin.MigrateTo(m.target, nil); err != nil {
		t.Fatalf("MigrateTo after the rollback: %v", err)
	}
	if _, _, err := m.refresh(sess); !errors.Is(err, core.ErrViolationDetected) {
		t.Fatalf("refresh after a rolled-back migration = %v, want a detected violation", err)
	}
}

// The target enclave restarts from its own storage: its key blob is
// sealed under the destination platform's key, its chain is its own.
func TestMigrateToTargetRestartsFromOwnStorage(t *testing.T) {
	m := newMigrateStack(t, stablestore.NewMemStore(), stablestore.NewMemStore(), []uint32{1})
	sess := m.session(1)
	put(t, sess, "a", "1")
	if _, err := m.origin.MigrateTo(m.target, nil); err != nil {
		t.Fatalf("MigrateTo: %v", err)
	}
	next, _, err := m.refresh(sess)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	put(t, next, "b", "2")
	if err := m.target.Enclave(0).Restart(); err != nil {
		t.Fatalf("target restart: %v", err)
	}
	get(t, next, "a", "1")
	get(t, next, "b", "2")
}

// An enclave on a foreign platform over the origin's own storage finds a
// key blob it cannot unseal and awaits provisioning instead of halting;
// as a fresh destination it then takes the deployment over, the moved
// state namespaced beside the origin's.
func TestMigrateToForeignPlatformOverOriginStorage(t *testing.T) {
	shared := stablestore.NewMemStore()
	m := newMigrateStack(t, shared, shared, []uint32{1})
	status, err := core.QueryStatus(m.target.ECall)
	if err != nil {
		t.Fatalf("status of the foreign-platform enclave: %v", err)
	}
	if status.Provisioned {
		t.Fatal("an enclave on a foreign platform opened the origin's key blob")
	}
	sess := m.session(1)
	put(t, sess, "k", "v")
	if _, err := m.origin.MigrateTo(m.target, nil); err != nil {
		t.Fatalf("MigrateTo over shared storage: %v", err)
	}
	next, _, err := m.refresh(sess)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	get(t, next, "k", "v")
}

// A migrated deployment keeps working: the destination reshards 1→2, the
// client walks generation 0 → 1 → 2, and once it acked each boundary the
// destination's reshard GC reclaims the retired generation 1 and leaves
// the live generation 2 intact, which restarts and serves.
func TestMigrateToThenReshardAndGC(t *testing.T) {
	dir := t.TempDir()
	targetStore, err := stablestore.NewFileStore(dir, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := newMigrateStack(t, stablestore.NewMemStore(), targetStore, []uint32{1})
	sess := m.session(1)
	keys := []string{keyOnShard(0, 2, "k"), keyOnShard(1, 2, "k")}
	for _, key := range keys {
		put(t, sess, key, "v-"+key)
	}
	if _, err := m.origin.MigrateTo(m.target, nil); err != nil {
		t.Fatalf("MigrateTo: %v", err)
	}
	next, _, err := m.refresh(sess)
	if err != nil {
		t.Fatalf("refresh to generation 1: %v", err)
	}
	if _, err := m.target.Reshard(2, nil); err != nil {
		t.Fatalf("destination Reshard: %v", err)
	}
	if next, _, err = m.refresh(next); err != nil {
		t.Fatalf("refresh to generation 2: %v", err)
	}
	if next.Gen() != 2 || next.Shards() != 2 {
		t.Fatalf("session at generation %d over %d shards, want 2 over 2", next.Gen(), next.Shards())
	}
	if files := namespaceFiles(t, dir, genShardPrefix(1, 0)); len(files) != 0 {
		t.Fatalf("retired generation 1 still holds %v", files)
	}
	for j := 0; j < 2; j++ {
		if len(namespaceFiles(t, dir, genShardPrefix(2, j))) == 0 {
			t.Fatalf("live namespace %s has no files", genShardPrefix(2, j))
		}
		if err := m.target.Enclave(j).Restart(); err != nil {
			t.Fatalf("restart live shard %d: %v", j, err)
		}
	}
	for _, key := range keys {
		get(t, next, key, "v-"+key)
	}
}
