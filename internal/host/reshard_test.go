package host

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcm/internal/aead"
	"lcm/internal/client"
	"lcm/internal/consistency"
	"lcm/internal/core"
	"lcm/internal/counter"
	"lcm/internal/kvs"
	"lcm/internal/service"
	"lcm/internal/stablestore"
	"lcm/internal/transport"
)

// refreshUntilAdopted drives a session through the reshard refresh loop
// (refreshVia) against the stack's server.
func refreshUntilAdopted(st *shardStack, sess *client.ShardedSession) (*client.ShardedSession, []client.ReshardPending, error) {
	return refreshVia(sess, func() (transport.Conn, error) { return st.net.Dial("srv") })
}

// refreshVia drives a session through the reshard refresh loop, dialing
// the new generation with dial: while the reshard is still in flight the
// host has no info to serve, so the client retries; a verification
// failure (violation) is returned to the caller. Returns the adopted
// session and the pending resolution.
func refreshVia(sess *client.ShardedSession, dial func() (transport.Conn, error)) (*client.ShardedSession, []client.ReshardPending, error) {
	deadline := time.Now().Add(10 * time.Second)
	for {
		next, pending, err := sess.Refresh(dial)
		if err == nil {
			return next, pending, nil
		}
		if errors.Is(err, core.ErrViolationDetected) {
			return nil, nil, err
		}
		if time.Now().After(deadline) {
			return nil, nil, fmt.Errorf("refresh never succeeded: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// dropNextReply is a client link that loses the next frame it receives
// once armed: an operation that executes but whose reply never arrives.
type dropNextReply struct {
	transport.Conn
	armed atomic.Bool
}

func (c *dropNextReply) Recv() ([]byte, error) {
	for {
		b, err := c.Conn.Recv()
		if err != nil || !c.armed.CompareAndSwap(true, false) {
			return b, err
		}
	}
}

// A reshard after a restart still recovers a frozen operation's result:
// the put executed on its old shard and its reply was lost, the shard
// restarted (its V entry, cached reply included, comes back from stable
// storage), and the handoff still carries a reply the client verifies as
// that put's.
func TestReshardAfterRestartRecoversExecutedOp(t *testing.T) {
	const shard = 1
	st := newShardStack(t, stablestore.NewMemStore(), 2, []uint32{1}, false)
	conn, err := st.net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	link := &dropNextReply{Conn: conn}
	sess := client.NewSharded(link, 1, st.keys, kvs.New(), client.Config{Timeout: 200 * time.Millisecond})
	t.Cleanup(func() { sess.Close() })
	key := keyOnShard(shard, 2, "doc")
	if _, err := sess.Do(kvs.Put(key, "v1")); err != nil {
		t.Fatal(err)
	}
	link.armed.Store(true)
	if _, err := sess.Do(kvs.Put(key, "v2")); err == nil || !sess.HasPending(shard) {
		t.Fatalf("put with a lost reply = %v, pending %v", err, sess.HasPending(shard))
	}
	if err := st.server.Enclave(shard).Restart(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.server.Reshard(4, nil); err != nil {
		t.Fatalf("Reshard: %v", err)
	}
	next, pending, err := refreshUntilAdopted(st, sess)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if len(pending) != 1 || !pending[0].Executed || pending[0].Result == nil || pending[0].Result.Seq != 2 {
		t.Fatalf("pending = %+v, want the executed put (seq 2) with its result", pending)
	}
	res, err := next.Do(kvs.Get(key))
	if err != nil {
		t.Fatal(err)
	}
	if kv, _ := kvs.DecodeResult(res.Value); !kv.Found || string(kv.Value) != "v2" {
		t.Fatalf("%q after the reshard = %q (found %v), want v2", key, kv.Value, kv.Found)
	}
}

// A live 2→4 reshard under concurrent client traffic: every acknowledged
// write survives the move, clients detect the boundary, refresh, resolve
// their pending operations against the handoff and keep writing — and
// the stitched cross-generation history is fork-linearizable.
func TestLiveReshardGrowUnderTraffic(t *testing.T) {
	const (
		oldShards     = 2
		newShards     = 4
		opsPerClient  = 40
		keysPerClient = 5
	)
	ids := []uint32{1, 2, 3}
	st := newShardStack(t, stablestore.NewMemStore(), oldShards, ids, true)

	log := consistency.NewLog()
	var (
		ackMu sync.Mutex
		acked = map[string]string{} // latest acknowledged value per key
	)
	var ackCount atomic.Int64
	ack := func(key, val string) {
		ackMu.Lock()
		acked[key] = val
		ackMu.Unlock()
		ackCount.Add(1)
	}

	finals := make([]*client.ShardedSession, len(ids))
	var wg sync.WaitGroup
	for ci, id := range ids {
		sess := st.session(id)
		wg.Add(1)
		go func(ci int, id uint32, sess *client.ShardedSession) {
			defer wg.Done()
			// Run at least opsPerClient ops AND until the reshard boundary
			// has been crossed — a fast worker must not finish on the old
			// generation before the coordinator freezes it (the whole
			// point is writing across the move). The cap guards against a
			// reshard that never happens.
			for i := 0; i < opsPerClient || sess.Gen() == 0; i++ {
				if i > 100*opsPerClient {
					t.Errorf("client %d never crossed the reshard boundary", id)
					return
				}
				key := fmt.Sprintf("c%d-k%d", id, i%keysPerClient)
				val := fmt.Sprintf("v%d-%d", id, i)
				op := kvs.Put(key, val)
				res, err := sess.Do(op)
				if err != nil {
					if !client.NeedsReshardRefresh(err) {
						t.Errorf("client %d op %d: %v", id, i, err)
						return
					}
					next, pending, rerr := refreshUntilAdopted(st, sess)
					if rerr != nil {
						t.Errorf("client %d refresh: %v", id, rerr)
						return
					}
					sess = next
					// At most our own just-failed put can be pending.
					executed := false
					for _, p := range pending {
						if p.Executed {
							executed = true
							if p.Result == nil {
								t.Errorf("client %d: executed pending op without a recovered result", id)
							}
						}
					}
					if executed {
						// The old shard executed it before freezing: the
						// handoff's cached reply recovered the result, so
						// it is an acknowledged write.
						ack(key, val)
					} else {
						i-- // never executed: re-issue on the new session
					}
					continue
				}
				ack(key, val)
				gen, shards := int(sess.Gen()), sess.Shards()
				shard := service.ShardIndex(key, shards)
				log.Record(consistency.Event{
					Client: id,
					Gen:    gen,
					Shard:  shard,
					Seq:    res.Seq,
					Stable: res.Stable,
					Op:     op,
					Result: res.Value,
					Chain:  sess.State(shard).HC,
				})
			}
			finals[ci] = sess
		}(ci, id, sess)
	}

	// Let traffic build up on the old generation, then reshard live.
	for ackCount.Load() < 15 {
		time.Sleep(time.Millisecond)
	}
	stats, err := st.server.Reshard(newShards, nil)
	if err != nil {
		t.Fatalf("Reshard: %v", err)
	}
	if stats.Gen != 1 || stats.OldShards != oldShards || stats.NewShards != newShards {
		t.Fatalf("reshard stats = %+v", stats)
	}
	if stats.Pause <= 0 {
		t.Fatalf("reshard reported a non-positive pause: %v", stats.Pause)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Zero acknowledged-write loss: every acknowledged key reads back at
	// its latest acknowledged value through the new generation.
	reader := finals[0]
	if reader == nil || reader.Gen() != 1 || reader.Shards() != newShards {
		t.Fatalf("client 1 did not adopt the new generation: %+v", reader)
	}
	ackMu.Lock()
	defer ackMu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no writes were acknowledged")
	}
	for key, want := range acked {
		res, err := reader.Do(kvs.Get(key))
		if err != nil {
			t.Fatalf("read %q after reshard: %v", key, err)
		}
		kv, err := kvs.DecodeResult(res.Value)
		if err != nil {
			t.Fatal(err)
		}
		if !kv.Found || string(kv.Value) != want {
			t.Fatalf("key %q after reshard = %q (found=%v), want %q — acknowledged write lost",
				key, kv.Value, kv.Found, want)
		}
	}

	// The stitched cross-generation history is fork-linearizable.
	if err := log.CheckSharded(kvs.Factory()); err != nil {
		t.Fatalf("cross-reshard history: %v", err)
	}

	// Operational view reflects the new generation.
	ds, err := st.server.DeploymentStatus()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Gen != 1 || len(ds.Shards) != newShards {
		t.Fatalf("deployment status after reshard: gen=%d shards=%d", ds.Gen, len(ds.Shards))
	}
	for _, sh := range ds.Shards {
		if sh.Err != "" || !sh.Status.Provisioned || sh.Status.Gen != 1 {
			t.Fatalf("new shard %d unhealthy after reshard: %+v", sh.Shard, sh)
		}
	}
}

// Shrinking works through the same path: 4→2 merges every source's
// fragments and no key is lost.
func TestReshardShrinkMergesState(t *testing.T) {
	ids := []uint32{1}
	st := newShardStack(t, stablestore.NewMemStore(), 4, ids, false)
	sess := st.session(1)

	written := map[string]string{}
	for shard := 0; shard < 4; shard++ {
		key := keyOnShard(shard, 4, "doc")
		val := fmt.Sprintf("val-%d", shard)
		if _, err := sess.Do(kvs.Put(key, val)); err != nil {
			t.Fatal(err)
		}
		written[key] = val
	}

	if _, err := st.server.Reshard(2, nil); err != nil {
		t.Fatalf("Reshard 4→2: %v", err)
	}
	next, pending, err := refreshUntilAdopted(st, sess)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	if len(pending) != 0 {
		t.Fatalf("unexpected pending resolution: %+v", pending)
	}
	if next.Shards() != 2 {
		t.Fatalf("refreshed session spans %d shards, want 2", next.Shards())
	}
	for key, want := range written {
		res, err := next.Do(kvs.Get(key))
		if err != nil {
			t.Fatal(err)
		}
		kv, _ := kvs.DecodeResult(res.Value)
		if !kv.Found || string(kv.Value) != want {
			t.Fatalf("key %q after shrink = %q (found=%v), want %q", key, kv.Value, kv.Found, want)
		}
	}
}

// Growing a classic single-shard deployment (generation 0, unprefixed
// storage layout) into a sharded one exercises the namespace re-mapping.
func TestReshardSingleShardGrows(t *testing.T) {
	ids := []uint32{1}
	st := newShardStack(t, stablestore.NewMemStore(), 1, ids, false)
	sess := st.session(1)
	for i := 0; i < 6; i++ {
		if _, err := sess.Do(kvs.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.server.Reshard(3, nil); err != nil {
		t.Fatalf("Reshard 1→3: %v", err)
	}
	next, _, err := refreshUntilAdopted(st, sess)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}
	for i := 0; i < 6; i++ {
		res, err := next.Do(kvs.Get(fmt.Sprintf("k%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		kv, _ := kvs.DecodeResult(res.Value)
		if !kv.Found || string(kv.Value) != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d after 1→3 reshard = %q (found=%v)", i, kv.Value, kv.Found)
		}
	}
}

// A rollback injected on a source shard during the move: the host rolls
// the shard's persisted chain back and restarts it before the reshard,
// so the exported handoff pins a stale V. The client's refresh must
// refuse the new generation with a detected violation — the fork is
// detected, not adopted.
func TestReshardRollbackDuringMoveDetected(t *testing.T) {
	const victim = 1
	store := stablestore.NewRollbackStore(stablestore.NewMemStore())
	st := newShardStack(t, store, 2, []uint32{1}, false)
	sess := st.session(1)

	victimKey := keyOnShard(victim, 2, "doc")
	for i := 1; i <= 4; i++ {
		if _, err := sess.Do(kvs.Put(victimKey, fmt.Sprintf("draft-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sess.Do(kvs.Put(keyOnShard(0, 2, "doc"), "other")); err != nil {
		t.Fatal(err)
	}

	// The attack: serve the victim's chain minus its last two records and
	// restart it, all before the reshard begins.
	if err := st.server.AttackRollback(victim, 2); err != nil {
		t.Fatalf("AttackRollback: %v", err)
	}

	// The reshard itself completes — the rolled-back state is internally
	// consistent, so only the clients' contexts can expose it.
	if _, err := st.server.Reshard(4, nil); err != nil {
		t.Fatalf("Reshard after rollback: %v", err)
	}
	_, _, err := refreshUntilAdopted(st, sess)
	if !errors.Is(err, core.ErrViolationDetected) {
		t.Fatalf("refresh after rolled-back reshard returned %v, want a detected violation", err)
	}
}

// A fork mounted on a source shard during the move: one partition's
// clients ride the fork while the host serves the reshard from the
// primary's branch (discarding the fork's records so the chain folds).
// The forked partition's client must detect at refresh; the primary
// partition's client adopts cleanly.
func TestReshardForkDuringMoveDetected(t *testing.T) {
	const victim = 1
	store := stablestore.NewRollbackStore(stablestore.NewMemStore())
	ids := []uint32{1, 2}
	st := newShardStack(t, store, 2, ids, false)

	victimKey := keyOnShard(victim, 2, "doc")
	honest := st.session(1)
	for i := 1; i <= 3; i++ {
		if _, err := honest.Do(kvs.Put(victimKey, fmt.Sprintf("primary-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// Fork the victim shard; client 2 (a new connection) lands on the
	// fork and makes progress there.
	if _, err := st.server.AttackFork(victim); err != nil {
		t.Fatalf("AttackFork: %v", err)
	}
	forked := st.session(2)
	for i := 1; i <= 2; i++ {
		if _, err := forked.Do(kvs.Put(victimKey, fmt.Sprintf("fork-%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	// The host cleans the shared log back to the primary's branch so the
	// staged chain folds to the primary's head, then reshards from it.
	if !store.RollbackLogBy(st.server.ShardSlot(victim, core.SlotDeltaLog), 2) {
		t.Fatal("could not pin the victim log to the primary branch")
	}
	if _, err := st.server.Reshard(4, nil); err != nil {
		t.Fatalf("Reshard with a mounted fork: %v", err)
	}

	// The forked client's context disagrees with the exported V: refused.
	if _, _, err := refreshUntilAdopted(st, forked); !errors.Is(err, core.ErrViolationDetected) {
		t.Fatalf("forked client's refresh returned %v, want a detected violation", err)
	}
	// The primary partition's client adopts the new generation.
	next, _, err := refreshUntilAdopted(st, honest)
	if err != nil {
		t.Fatalf("honest client's refresh: %v", err)
	}
	res, err := next.Do(kvs.Get(victimKey))
	if err != nil {
		t.Fatal(err)
	}
	kv, _ := kvs.DecodeResult(res.Value)
	if string(kv.Value) != "primary-3" {
		t.Fatalf("victim key after reshard = %q, want primary-3", kv.Value)
	}
}

// An escrow prepared before the reshard settles after it: the bank's
// transaction records follow their accounts across the repartition, so
// the coordinator resumes the journaled transfer against the new layout
// and money is conserved.
func TestReshardEscrowTransferResumes(t *testing.T) {
	ids := []uint32{1}
	st := newServiceShardStack(t, stablestore.NewMemStore(), 2, ids, false, "bank", counter.Factory())
	sess := st.sessionWith(1, counter.New())

	from := keyOnShard(0, 2, "acct-src")
	to := keyOnShard(1, 2, "acct-dst")
	if _, err := sess.Do(counter.Inc(from, 100)); err != nil {
		t.Fatal(err)
	}

	tx, err := sess.NewTransfer(from, to, 30)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.DoOn(0, counter.Prepare(tx.ID, from, 30))
	if err != nil {
		t.Fatal(err)
	}
	if cr, _ := counter.DecodeResult(res.Value); cr.Code != counter.StatusOK {
		t.Fatalf("prepare refused: %+v", cr)
	}
	tx.Phase = client.TxPrepared

	if _, err := st.server.Reshard(4, nil); err != nil {
		t.Fatalf("Reshard with escrow in flight: %v", err)
	}
	next, _, err := refreshUntilAdopted(st, sess)
	if err != nil {
		t.Fatalf("refresh: %v", err)
	}

	out, err := next.RunTransfer(tx, nil)
	if err != nil {
		t.Fatalf("resume transfer after reshard: %v", err)
	}
	if !out.OK {
		t.Fatalf("transfer rejected after reshard: %+v", out)
	}

	// Conservation across the boundary: balances moved, escrow burned.
	check := func(acct string, want int64) {
		res, err := next.Do(counter.Read(acct))
		if err != nil {
			t.Fatal(err)
		}
		cr, _ := counter.DecodeResult(res.Value)
		if cr.Balance != want {
			t.Fatalf("%s balance after reshard = %d, want %d", acct, cr.Balance, want)
		}
	}
	check(from, 70)
	check(to, 30)
	var escrow int64
	for shard := 0; shard < next.Shards(); shard++ {
		res, err := next.DoOn(shard, counter.EscrowTotalOp())
		if err != nil {
			t.Fatal(err)
		}
		cr, _ := counter.DecodeResult(res.Value)
		escrow += cr.Balance
	}
	if escrow != 0 {
		t.Fatalf("escrow after settle = %d, want 0", escrow)
	}
}

// A client that slept through several reshards walks them one Refresh
// at a time: the host retains every generation's handoff bundle, and
// each boundary verifies with the keys adopted at the previous one.
func TestReshardClientWalksMultipleGenerations(t *testing.T) {
	ids := []uint32{1, 2}
	st := newShardStack(t, stablestore.NewMemStore(), 2, ids, false)

	sleeper := st.session(1)
	if _, err := sleeper.Do(kvs.Put("snooze", "v0")); err != nil {
		t.Fatal(err)
	}

	// Generation 1, adopted only by client 2, who keeps writing.
	awake := st.session(2)
	if _, err := st.server.Reshard(4, nil); err != nil {
		t.Fatalf("Reshard to gen 1: %v", err)
	}
	awake, _, err := refreshUntilAdopted(st, awake)
	if err != nil {
		t.Fatalf("client 2 refresh to gen 1: %v", err)
	}
	if _, err := awake.Do(kvs.Put("gen1-key", "v1")); err != nil {
		t.Fatal(err)
	}
	// Generation 2, while client 1 still holds generation-0 state.
	if _, err := st.server.Reshard(3, nil); err != nil {
		t.Fatalf("Reshard to gen 2: %v", err)
	}

	// The sleeper walks 0→1→2: the first refresh serves generation 1's
	// bundle (not the latest), the second completes the catch-up.
	step1, pending, err := refreshUntilAdopted(st, sleeper)
	if err != nil {
		t.Fatalf("sleeper's first refresh: %v", err)
	}
	if len(pending) != 0 || step1.Gen() != 1 || step1.Shards() != 4 {
		t.Fatalf("first walk step: gen=%d shards=%d pending=%v", step1.Gen(), step1.Shards(), pending)
	}
	step2, _, err := refreshUntilAdopted(st, step1)
	if err != nil {
		t.Fatalf("sleeper's second refresh: %v", err)
	}
	if step2.Gen() != 2 || step2.Shards() != 3 {
		t.Fatalf("second walk step: gen=%d shards=%d", step2.Gen(), step2.Shards())
	}
	// Both generations' writes survived into the current one.
	for key, want := range map[string]string{"snooze": "v0", "gen1-key": "v1"} {
		res, err := step2.Do(kvs.Get(key))
		if err != nil {
			t.Fatal(err)
		}
		kv, _ := kvs.DecodeResult(res.Value)
		if !kv.Found || string(kv.Value) != want {
			t.Fatalf("key %q after two-generation walk = %q (found=%v), want %q", key, kv.Value, kv.Found, want)
		}
	}
}

// A reshard that fails before the export point aborts cleanly: the
// frozen sources unfreeze and keep serving the old generation, no
// handoff bundle is published (clients get ErrNoReshard, not a false
// adoption), and a retry succeeds once the storage recovers.
func TestReshardAbortResumesOldGeneration(t *testing.T) {
	store := stablestore.NewCrashStore(stablestore.NewMemStore())
	st := newShardStack(t, store, 2, []uint32{1}, false)
	sess := st.session(1)
	if _, err := sess.Do(kvs.Put("k", "v1")); err != nil {
		t.Fatal(err)
	}

	// Every write from here on fails: the staging copy is the reshard's
	// first storage write, so the attempt dies before EXPORT.
	store.FailAfter(0)
	if _, err := st.server.Reshard(4, nil); err == nil {
		t.Fatal("reshard succeeded with failing storage")
	}
	store.Reset()

	// The old generation serves again (the sources were unfrozen)...
	if _, err := sess.Do(kvs.Put("k", "v2")); err != nil {
		t.Fatalf("old generation dead after aborted reshard: %v", err)
	}
	// ...and no reshard bundle was published.
	if _, err := sess.FetchReshardInfo(); !errors.Is(err, client.ErrNoReshard) {
		t.Fatalf("FetchReshardInfo after abort = %v, want ErrNoReshard", err)
	}

	// A retry completes and the client adopts generation 1 normally.
	if _, err := st.server.Reshard(4, nil); err != nil {
		t.Fatalf("retried reshard: %v", err)
	}
	next, _, err := refreshUntilAdopted(st, sess)
	if err != nil {
		t.Fatalf("refresh after retried reshard: %v", err)
	}
	res, err := next.Do(kvs.Get("k"))
	if err != nil {
		t.Fatal(err)
	}
	if kv, _ := kvs.DecodeResult(res.Value); string(kv.Value) != "v2" {
		t.Fatalf("value after abort+retry = %q, want v2", kv.Value)
	}
}

// Guard rails: a no-op reshard is rejected without freezing anything,
// and the info endpoint reports the absence of a reshard.
func TestReshardRejectsNoopAndServesNoInfo(t *testing.T) {
	st := newShardStack(t, stablestore.NewMemStore(), 2, []uint32{1}, false)
	sess := st.session(1)

	if _, err := st.server.Reshard(2, nil); err == nil || !strings.Contains(err.Error(), "already has") {
		t.Fatalf("Reshard to the same count = %v, want rejection", err)
	}
	if _, err := sess.FetchReshardInfo(); err == nil || !strings.Contains(err.Error(), "no reshard") {
		t.Fatalf("FetchReshardInfo before any reshard = %v, want an error", err)
	}
	// The deployment still serves.
	if _, err := sess.Do(kvs.Put("k", "v")); err != nil {
		t.Fatalf("deployment broken by rejected reshard: %v", err)
	}
}

// Admin continuity across a reshard: the admin opens a kP-authenticated
// channel before the move, the lead seals the new generation's key set
// to it at BEGIN, and the adopted per-shard admins keep performing
// membership changes — a client admitted *after* the reshard operates
// with the keys only the handoff could have carried.
func TestReshardAdminContinuity(t *testing.T) {
	const newShards = 4
	st := newShardStack(t, stablestore.NewMemStore(), 2, []uint32{1}, false)
	sess := st.session(1)
	if _, err := sess.Do(kvs.Put("carried", "v1")); err != nil {
		t.Fatal(err)
	}

	adminCh, err := st.admins[0].ReshardChannel()
	if err != nil {
		t.Fatalf("ReshardChannel: %v", err)
	}
	stats, err := st.server.Reshard(newShards, adminCh)
	if err != nil {
		t.Fatalf("Reshard with admin: %v", err)
	}
	admins, err := st.admins[0].AdoptReshard(stats.AdminHandoff)
	if err != nil {
		t.Fatalf("AdoptReshard: %v", err)
	}
	if len(admins) != newShards {
		t.Fatalf("adopted %d admins, want %d", len(admins), newShards)
	}

	// The existing client walks the boundary as usual; the admin handoff
	// changed nothing about the client-facing protocol.
	next, _, err := refreshUntilAdopted(st, sess)
	if err != nil {
		t.Fatalf("refresh after reshard: %v", err)
	}
	res, err := next.Do(kvs.Get("carried"))
	if err != nil {
		t.Fatal(err)
	}
	if kv, _ := kvs.DecodeResult(res.Value); string(kv.Value) != "v1" {
		t.Fatalf("carried value = %q, want v1", kv.Value)
	}

	// Membership changes keep working: each adopted admin admits client 2
	// on its shard of the new generation.
	for j, adm := range admins {
		if err := adm.Join(st.server.ShardCall(j), 2); err != nil {
			t.Fatalf("Join on new shard %d: %v", j, err)
		}
	}

	// The admitted client operates with the communication keys the
	// adopted admins hold — keys the host never saw in the clear.
	keys := make([]aead.Key, newShards)
	for j, adm := range admins {
		keys[j] = adm.CommunicationKey()
	}
	conn, err := st.net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	sess2 := client.NewSharded(conn, 2, keys, kvs.New(), client.Config{
		Timeout: 5 * time.Second,
		Retries: 1,
		Gen:     stats.Gen,
	})
	defer sess2.Close()
	if _, err := sess2.Do(kvs.Put("post-reshard", "by-client-2")); err != nil {
		t.Fatalf("admitted client write: %v", err)
	}
	res, err = sess2.Do(kvs.Get("post-reshard"))
	if err != nil {
		t.Fatal(err)
	}
	if kv, _ := kvs.DecodeResult(res.Value); string(kv.Value) != "by-client-2" {
		t.Fatalf("admitted client read = %q, want by-client-2", kv.Value)
	}
}

// A forged admin channel cannot trick the lead into disclosing the new
// generation's keys: the channel blob authenticates under kP, which the
// host does not hold, so BEGIN refuses and the reshard aborts cleanly.
func TestReshardForgedAdminChannelRefused(t *testing.T) {
	st := newShardStack(t, stablestore.NewMemStore(), 2, []uint32{1}, false)
	sess := st.session(1)
	if _, err := sess.Do(kvs.Put("k", "v")); err != nil {
		t.Fatal(err)
	}

	// The host mints its own key and seals a channel pubkey with it —
	// the best a malicious operator can do without kP.
	hostKey, err := aead.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	forged, err := aead.Seal(hostKey, make([]byte, 32), []byte("lcm/reshard/adminchannel/v1"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.server.Reshard(4, forged); err == nil {
		t.Fatal("reshard accepted a forged admin channel")
	}
	// The abort unfroze the old generation; it still serves.
	if _, err := sess.Do(kvs.Put("k", "v2")); err != nil {
		t.Fatalf("deployment broken by refused reshard: %v", err)
	}
}
