package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"lcm/internal/aead"
	"lcm/internal/kvs"
	"lcm/internal/service"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
)

// foldEnv is what a scratch fold runs in: the deployment's storage, no
// memory accounting.
type foldEnv struct {
	tee.Env
	host tee.HostServices
}

func (e foldEnv) Host() tee.HostServices { return e.host }
func (foldEnv) ChargeMemory(int64)       {}

// foldStored folds a deployment's stored blob and chain in a scratch
// context, with the install and foldDeltaLog that recovery and reshard
// staging run; move, if set, first changes the blob's state.
func foldStored(storage stablestore.Store, kp aead.Key, move func(*trustedState)) (*Trusted, error) {
	blob, err := storage.Load(SlotStateBlob)
	if err != nil {
		return nil, err
	}
	state, seg, err := openStateBlob(kp, blob, func() ([]byte, error) { return storage.Load(SlotStateBlob) })
	if err != nil {
		return nil, err
	}
	if move != nil {
		move(state)
	}
	p := &Trusted{newService: kvs.Factory()}
	p.useService(kvs.New())
	env := foldEnv{host: storage}
	if err := p.install(env, kp, state); err != nil {
		return nil, err
	}
	return p, p.foldDeltaLog(env, state, seg, len(blob), SegmentSlot)
}

// sameState reports where a fold of the stored chain differs from the
// live context: V with every (TA, HA), (t, h), the q floor, the group
// epoch, the beacon ordinal and tick, and the service state.
func sameState(live, folded *Trusted) error {
	if live.t != folded.t || live.h != folded.h {
		return fmt.Errorf("(t, h): live (%d, %v), folded (%d, %v)", live.t, live.h, folded.t, folded.h)
	}
	// The read path's publish may raise the live floor after a record
	// (the next record carries it): the fold must hold the floor as of
	// the last record, which the sealer tracks.
	if live.chainQFloor != folded.g.qFloor || live.g.qFloor < folded.g.qFloor || live.g.epoch != folded.g.epoch {
		return fmt.Errorf("q floor, epoch: live %d (%d at the last record), %d, folded %d, %d",
			live.g.qFloor, live.chainQFloor, live.g.epoch, folded.g.qFloor, folded.g.epoch)
	}
	if live.beaconSeq != folded.beaconSeq || live.beaconTick != folded.beaconTick {
		return fmt.Errorf("beacon ordinal, tick: live %d, %d, folded %d, %d", live.beaconSeq, live.beaconTick, folded.beaconSeq, folded.beaconTick)
	}
	if ids, fids := live.g.v.clientIDs(), folded.g.v.clientIDs(); !slices.Equal(ids, fids) {
		return fmt.Errorf("members: live %v, folded %v", ids, fids)
	}
	for id, e := range live.g.v {
		f := folded.g.v[id]
		if e.TA != f.TA || e.HA != f.HA || e.T != f.T || e.H != f.H || !bytes.Equal(e.Reply, f.Reply) {
			return fmt.Errorf("V[%d]: live (TA %d, T %d), folded (TA %d, T %d), HA equal %v, H equal %v, Reply equal %v",
				id, e.TA, e.T, f.TA, f.T, e.HA == f.HA, e.H == f.H, bytes.Equal(e.Reply, f.Reply))
		}
	}
	ls, err1 := live.svc.(service.Resharder).PartitionState(1)
	fs, err2 := folded.svc.(service.Resharder).PartitionState(1)
	if err := errors.Join(err1, err2); err != nil {
		return err
	}
	if !bytes.Equal(ls[0], fs[0]) {
		return errors.New("service state differs")
	}
	return nil
}

// foldRig is a rig whose live Trusted the test can inspect.
type foldRig struct {
	*rig
	live  *Trusted
	cfg   TrustedConfig
	reads bool // snapshot reads armed
	rng   *rand.Rand
	next  uint32 // the next fresh client id
}

func (f *foldRig) factory() tee.ProgramFactory {
	inner := NewTrustedFactory(f.cfg)
	return func() tee.Program {
		p := inner()
		f.live = p.(*Trusted)
		return p
	}
}

func newFoldRig(t *testing.T, seed int64) *foldRig {
	rng := rand.New(rand.NewSource(seed))
	attestation := tee.NewAttestationService()
	platform, err := tee.NewPlatform(fmt.Sprintf("plat-fold-%d", seed))
	if err != nil {
		t.Fatal(err)
	}
	attestation.Register(platform)
	f := &foldRig{rng: rng, next: 4, cfg: TrustedConfig{
		ServiceName: "kvs",
		NewService:  kvs.Factory(),
		Attestation: attestation,
		cutRecords:  3 + rng.Intn(12),
	}}
	if rng.Intn(2) == 0 {
		f.cfg.EvictAfterEpochs = 2
	}
	storage := stablestore.NewRollbackStore(stablestore.NewMemStore())
	enclave := platform.NewEnclave(f.factory(), storage)
	if err := enclave.Start(); err != nil {
		t.Fatal(err)
	}
	admin := NewAdmin(attestation, ProgramIdentity("kvs"))
	ids := []uint32{1, 2, 3}
	if err := admin.Bootstrap(enclave.Call, ids); err != nil {
		t.Fatal(err)
	}
	clients := map[uint32]*Client{}
	for _, id := range ids {
		clients[id] = NewClient(id, admin.CommunicationKey())
	}
	f.rig = &rig{t: t, platform: platform, attestation: attestation, storage: storage, enclave: enclave, admin: admin, clients: clients}
	return f
}

// member picks a random current member.
func (f *foldRig) member() uint32 {
	ids := make([]uint32, 0, len(f.clients))
	for id := range f.clients {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids[f.rng.Intn(len(ids))]
}

// call runs one ecall whose result carries a persistence record and
// persists it like the honest host.
func (f *foldRig) callPersist(payload []byte) *BatchResult {
	f.t.Helper()
	resp, err := f.enclave.Call(payload)
	if err != nil {
		f.t.Fatal(err)
	}
	batch, err := DecodeBatchResult(resp)
	if err != nil {
		f.t.Fatal(err)
	}
	if len(batch.DeltaRecord) > 0 || len(batch.StateBlob) > 0 {
		if err := f.persistBatch(batch); err != nil {
			f.t.Fatal(err)
		}
	}
	f.advance()
	return batch
}

// advance confirms everything durable to the snapshot readers.
func (f *foldRig) advance() {
	if f.reads {
		if _, err := f.enclave.Call(EncodeAdvanceDurableCall(f.live.t)); err != nil {
			f.t.Fatal(err)
		}
	}
}

// rekey adopts the context's membership and kC after churn or a seal.
func (f *foldRig) rekey() {
	f.t.Helper()
	info, err := f.admin.Members(f.enclave.Call)
	if err != nil {
		f.t.Fatal(err)
	}
	kc := f.admin.CommunicationKey()
	clients := map[uint32]*Client{}
	for _, id := range info.Members {
		if c, ok := f.clients[id]; ok {
			clients[id] = ResumeClient(c.State(), kc)
		}
	}
	f.clients = clients
}

func (f *foldRig) restart() {
	f.t.Helper()
	if err := f.enclave.Restart(); err != nil {
		f.t.Fatal(err)
	}
	if f.reads {
		if _, err := f.enclave.Call(EncodeEnableReadsCall()); err != nil {
			f.t.Fatal(err)
		}
		f.advance()
	}
}

// step runs one randomly chosen action of the schedule and names it.
func (f *foldRig) step() string {
	t := f.t
	t.Helper()
	switch n := f.rng.Intn(100); {
	case n < 30:
		f.mustPut(f.member(), fmt.Sprintf("k%d", f.rng.Intn(8)), fmt.Sprintf("v%d", f.rng.Intn(1000)))
		f.advance()
		return "put"
	case n < 38: // a chain of reads, each a batch's first op
		reads := 1 + f.rng.Intn(3)
		for i := 0; i < reads; i++ {
			f.mustDo(f.member(), f.op(0))
			f.advance()
		}
		return fmt.Sprintf("reads (%d)", reads)
	case n < 42:
		return f.batch()
	case n < 47: // the reply is lost and the client retries, after a restart or not
		c := f.clients[f.member()]
		invoke, err := c.Invoke(kvs.Put("retried", fmt.Sprint(f.rng.Intn(1000))))
		if err != nil {
			t.Fatal(err)
		}
		f.callPersist(EncodeBatchCall([][]byte{invoke}))
		if f.rng.Intn(2) == 0 {
			f.restart()
		}
		retry, err := c.RetryMessage()
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.deliver(c, retry)
		if err != nil {
			t.Fatalf("retry: %v", err)
		}
		f.advance()
		return fmt.Sprintf("retry (seq %d)", res.Seq)
	case n < 54:
		id := f.next
		f.next++
		msg, err := SealChurnMsg(f.admin.CommunicationKey(), ChurnJoin, id)
		if err != nil {
			t.Fatal(err)
		}
		f.callPersist(EncodeChurnCall([][]byte{msg}))
		f.clients[id] = NewClient(id, f.admin.CommunicationKey())
		f.rekey()
		return fmt.Sprintf("join %d", id)
	case n < 59:
		if len(f.clients) < 2 {
			return "skip"
		}
		id := f.member()
		msg, err := SealChurnMsg(f.admin.CommunicationKey(), ChurnLeave, id)
		if err != nil {
			t.Fatal(err)
		}
		f.callPersist(EncodeChurnCall([][]byte{msg}))
		f.rekey()
		return fmt.Sprintf("leave %d", id)
	case n < 64:
		if len(f.clients) < 2 {
			return "skip"
		}
		id := f.member()
		if err := f.admin.Evict(f.enclave.Call, id); err != nil {
			t.Fatal(err)
		}
		f.callPersist(EncodeEpochSealCall())
		f.rekey()
		return fmt.Sprintf("evict %d", id)
	case n < 72:
		f.callPersist(EncodeEpochSealCall())
		f.rekey()
		return "epoch seal"
	case n < 80:
		if b := f.callPersist(EncodeBeaconCall()); !b.Beacon {
			t.Fatal("beacon call returned no beacon")
		}
		if _, err := f.enclave.Call(EncodeBeaconConfirmCall()); err != nil {
			t.Fatal(err)
		}
		return "beacon"
	case n < 85:
		if !f.reads {
			if _, err := f.enclave.Call(EncodeEnableReadsCall()); err != nil {
				t.Fatal(err)
			}
			f.reads = true
			f.advance()
		}
		c := f.clients[f.member()]
		inv, err := c.ReadInvoke(kvs.Get(fmt.Sprintf("k%d", f.rng.Intn(8))))
		if err != nil {
			t.Fatal(err)
		}
		reply, err := f.enclave.ReadCall(inv)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ProcessReadReply(reply); err != nil {
			t.Fatalf("snapshot read: %v", err)
		}
		return "snapshot read"
	case n < 90:
		f.restart()
		return "restart"
	case n < 95:
		return f.heal()
	case n < 98:
		target, err := tee.NewPlatform(fmt.Sprintf("plat-fold-target-%d", f.next))
		if err != nil {
			t.Fatal(err)
		}
		f.next++
		f.attestation.Register(target)
		f.reshard(target, 1)
		return "migration"
	default:
		f.reshard(f.platform, 2)
		return "reshard"
	}
}

// batch runs one ecall over invokes of distinct members, one of them
// sometimes the retry of an op whose reply was lost.
func (f *foldRig) batch() string {
	t := f.t
	ids := make([]uint32, 0, len(f.clients))
	for id := range f.clients {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	f.rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	ids = ids[:min(len(ids), 2+f.rng.Intn(3))]
	retried := f.rng.Intn(3) == 0
	invokes := make([][]byte, len(ids))
	for i, id := range ids {
		c := f.clients[id]
		invoke, err := c.Invoke(f.op(1 + f.rng.Intn(2)))
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && retried { // executed, reply lost
			f.callPersist(EncodeBatchCall([][]byte{invoke}))
			if invoke, err = c.RetryMessage(); err != nil {
				t.Fatal(err)
			}
		}
		invokes[i] = invoke
	}
	batch := f.callPersist(EncodeBatchCall(invokes))
	for i, id := range ids {
		if _, err := f.clients[id].ProcessReply(batch.Replies[i]); err != nil {
			t.Fatalf("batch reply to %d: %v", id, err)
		}
	}
	return fmt.Sprintf("batch of %d (retry %v)", len(ids), retried)
}

// op returns a get or a SCAN, or with puts > 0 a put one time in
// puts+1: batches mix reads before and after writes.
func (f *foldRig) op(puts int) []byte {
	key := fmt.Sprintf("k%d", f.rng.Intn(8))
	switch n := f.rng.Intn(puts + 2); {
	case n < puts:
		return kvs.Put(key, fmt.Sprint(f.rng.Intn(1000)))
	case n == puts:
		return kvs.Get(key)
	default:
		return kvs.Scan(key[:1+f.rng.Intn(2)], uint32(f.rng.Intn(3)))
	}
}

// heal rolls the newest segment back by a suffix, restarts over it, and
// offers the suffix back through chain sync, as a replica would.
func (f *foldRig) heal() string {
	t := f.t
	slot := SegmentSlot(f.live.seg)
	records, err := f.storage.LoadLog(slot)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) == 0 {
		return "skip"
	}
	k := 1 + f.rng.Intn(len(records))
	f.storage.RollbackLogBy(slot, k)
	f.restart()
	f.storage.ClearAttack()
	resp, err := f.enclave.Call(EncodeChainSyncCall(records[len(records)-k:]))
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecodeChainSyncResult(resp)
	if err != nil || res.Folded != k {
		t.Fatalf("chain sync folded %v of %d records (%v)", res, k, err)
	}
	f.advance()
	return fmt.Sprintf("heal %d records", k)
}

// copyStored copies the stored blob and segments up to last to dst, as
// the host stages storage for a reshard.
func (f *foldRig) copyStored(dst stablestore.Store, last uint64) {
	for seg := uint64(0); seg <= last; seg++ {
		records, _ := f.storage.LoadLog(SegmentSlot(seg))
		if err := dst.AppendGroup(SegmentSlot(seg), records); err != nil {
			f.t.Fatal(err)
		}
	}
	blob, err := f.storage.Load(SlotStateBlob)
	if err == nil {
		err = dst.Store(SlotStateBlob, blob)
	}
	if err != nil {
		f.t.Fatal(err)
	}
}

// reshard moves the deployment onto n targets on platform (a migration
// is one target on another platform), checks that each target imported
// its part of the source's folded state, and carries on with shard 0:
// its admin and fresh client contexts, as clients adopting the
// generation.
func (f *foldRig) reshard(platform *tee.Platform, n int) {
	t := f.t
	src := f.live
	targets, progs := make([]*tee.Enclave, n), make([]*Trusted, n)
	stores := make([]*stablestore.RollbackStore, n)
	for j := range targets {
		stores[j] = stablestore.NewRollbackStore(stablestore.NewMemStore())
		targets[j] = platform.NewEnclave(f.factory(), stores[j])
		if err := targets[j].Start(); err != nil {
			t.Fatal(err)
		}
		progs[j] = f.live
	}
	want, err := src.svc.(service.Resharder).PartitionState(n)
	if err != nil {
		t.Fatal(err)
	}
	channel, err := f.admin.ReshardChannel()
	if err != nil {
		t.Fatal(err)
	}
	dsts := make([]stablestore.Store, n)
	for j := range stores {
		dsts[j] = stores[j]
	}
	last := src.seg
	begin, _, err := f.reshardOnto(targets, dsts, channel, func(dst stablestore.Store) { f.copyStored(dst, last) })
	if err != nil {
		t.Fatal(err)
	}
	for j := range targets {
		if got, _ := progs[j].svc.(service.Resharder).PartitionState(1); !bytes.Equal(got[0], want[j]) {
			t.Fatalf("reshard target %d imported a state other than its part of the source's", j)
		}
	}
	admins, err := f.admin.AdoptReshard(begin.AdminPayload)
	if err != nil {
		t.Fatal(err)
	}
	f.admin, f.platform, f.enclave, f.storage, f.live = admins[0], platform, targets[0], stores[0], progs[0]
	f.clients = map[uint32]*Client{}
	info, err := admins[0].Members(targets[0].Call)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range info.Members {
		f.clients[id] = NewClient(id, admins[0].CommunicationKey())
	}
	f.reads = false
}

// TestQuickFoldMatchesLiveState: for seeded schedules of puts, chains of
// gets and SCANs, batches mixing reads and puts in any order, retries, churn joins and leaves, evictions, epoch seals, beacons,
// snapshot reads, restarts, heals from a replica's suffix, migrations
// and reshards, a fold of every record the live enclave
// sealed ends in the live state. The fold derives every field a record
// omits, so each omit rule is checked against the state that rule stands
// for.
func TestQuickFoldMatchesLiveState(t *testing.T) {
	ran := map[string]int{}
	for seed := int64(1); seed <= 24; seed++ {
		f := newFoldRig(t, seed)
		var history []string
		for i := 0; i < 60; i++ {
			history = append(history, f.step())
			ran[strings.Fields(history[i])[0]]++
			folded, err := foldStored(f.storage, f.admin.StateKey(), nil)
			if err == nil {
				err = sameState(f.live, folded)
			}
			if err != nil {
				t.Fatalf("seed %d, after %v: %v", seed, history, err)
			}
		}
	}
	for _, action := range []string{"put", "reads", "batch", "retry", "join", "leave", "evict", "epoch", "beacon", "snapshot", "restart", "heal", "migration", "reshard"} {
		if ran[action] == 0 {
			t.Errorf("the schedules never ran %q (ran %v)", action, ran)
		}
	}
}
