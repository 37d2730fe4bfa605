package replication

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"lcm/internal/aead"
	"lcm/internal/securechannel"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/wire"
)

// replicaRig is one replica enclave plus everything a test needs to talk
// to it directly: the platform, attestation root and its storage view.
type replicaRig struct {
	platform *tee.Platform
	att      *tee.AttestationService
	store    *stablestore.MemStore
	enclave  *tee.Enclave
}

func newReplicaRig(t *testing.T) *replicaRig {
	t.Helper()
	platform, err := tee.NewPlatform("plat-replica")
	if err != nil {
		t.Fatal(err)
	}
	att := tee.NewAttestationService()
	att.Register(platform)
	store := stablestore.NewMemStore()
	enclave := platform.NewEnclave(Factory(), store)
	if err := enclave.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(enclave.Stop)
	return &replicaRig{platform: platform, att: att, store: store, enclave: enclave}
}

// provision attests the rig's replica and injects a fresh set key and the
// given base anchor, returning the key.
func (r *replicaRig) provision(t *testing.T, base [32]byte) aead.Key {
	t.Helper()
	nonce := []byte("test-nonce-0123456789abcdef")
	resp, err := r.enclave.Call(EncodeAttestCall(nonce))
	if err != nil {
		t.Fatalf("attest: %v", err)
	}
	quote, err := DecodeQuote(resp)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.att.Verify(quote, tee.Measure(Identity), nonce); err != nil {
		t.Fatalf("quote verify: %v", err)
	}
	kr, err := aead.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	w := wire.NewWriter(4 + aead.KeySize + 32)
	w.Var(kr.Bytes())
	w.Bytes32(base)
	senderPub, ct, err := securechannel.Seal(quote.UserData, w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	resp, err = r.enclave.Call(EncodeProvisionCall(senderPub, ct))
	if err != nil {
		t.Fatalf("provision: %v", err)
	}
	ack, err := OpenHeadAck(kr, resp)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Head != base || ack.Count != 0 {
		t.Fatalf("provision ack = %+v, want head=base count=0", ack)
	}
	return kr
}

func mustAppend(t *testing.T, e *tee.Enclave, kr aead.Key, prev [32]byte, records [][]byte) HeadAck {
	t.Helper()
	call, err := EncodeAppendCall(kr, prev, records)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Call(call)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	ack, err := OpenHeadAck(kr, resp)
	if err != nil {
		t.Fatal(err)
	}
	return ack
}

func fetchSuffix(t *testing.T, e *tee.Enclave, kr aead.Key, from [32]byte) ([][]byte, error) {
	t.Helper()
	call, err := EncodeSuffixCall(kr, from)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := e.Call(call)
	if err != nil {
		return nil, err
	}
	return OpenSuffixAck(kr, resp)
}

// chainOf hashes a record chain the way the replica tracks its head.
func chainOf(base [32]byte, records [][]byte) [32]byte {
	head := base
	for _, rec := range records {
		head = sha256.Sum256(rec)
	}
	return head
}

// The replica protocol end to end: provision, chained appends, suffix
// queries from every position, out-of-sync refusal, and reset.
func TestReplicaProtocolRoundtrip(t *testing.T) {
	rig := newReplicaRig(t)
	base := sha256.Sum256([]byte("base-blob"))
	kr := rig.provision(t, base)

	records := [][]byte{[]byte("rec-1"), []byte("rec-2"), []byte("rec-3")}
	ack := mustAppend(t, rig.enclave, kr, base, records)
	if ack.Count != 3 || ack.Head != chainOf(base, records) {
		t.Fatalf("append ack = %+v, want count=3 chained head", ack)
	}

	// Suffix from the base returns everything; from the head, nothing;
	// from a mid-chain record, the tail beyond it.
	all, err := fetchSuffix(t, rig.enclave, kr, base)
	if err != nil || len(all) != 3 {
		t.Fatalf("suffix from base = %d records, %v; want 3", len(all), err)
	}
	none, err := fetchSuffix(t, rig.enclave, kr, ack.Head)
	if err != nil || len(none) != 0 {
		t.Fatalf("suffix from head = %d records, %v; want 0", len(none), err)
	}
	tail, err := fetchSuffix(t, rig.enclave, kr, sha256.Sum256(records[0]))
	if err != nil || len(tail) != 2 || string(tail[0]) != "rec-2" {
		t.Fatalf("suffix from rec-1 = %v, %v; want [rec-2 rec-3]", tail, err)
	}
	if _, err := fetchSuffix(t, rig.enclave, kr, sha256.Sum256([]byte("unknown"))); !errors.Is(err, ErrUnknownSuffix) {
		t.Fatalf("suffix from unknown head: %v, want ErrUnknownSuffix", err)
	}

	// A stale append (wrong predecessor head) is refused, not applied.
	if _, err := rig.enclave.Call(mustEncodeAppend(t, kr, base, [][]byte{[]byte("stale")})); !errors.Is(err, ErrOutOfSync) {
		t.Fatalf("stale append: %v, want ErrOutOfSync", err)
	}

	// Reset re-anchors the mirror.
	newBase := sha256.Sum256([]byte("compacted-blob"))
	call, err := EncodeResetCall(kr, newBase)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := rig.enclave.Call(call)
	if err != nil {
		t.Fatal(err)
	}
	rack, err := OpenHeadAck(kr, resp)
	if err != nil || rack.Count != 0 || rack.Head != newBase {
		t.Fatalf("reset ack = %+v, %v; want count=0 head=newBase", rack, err)
	}
}

func mustEncodeAppend(t *testing.T, kr aead.Key, prev [32]byte, records [][]byte) []byte {
	t.Helper()
	call, err := EncodeAppendCall(kr, prev, records)
	if err != nil {
		t.Fatal(err)
	}
	return call
}

// The mirror survives an enclave restart: the set key and base unseal from
// storage, the head is recomputed from the persisted records, and appends
// continue where they left off.
func TestReplicaPersistsAcrossRestart(t *testing.T) {
	rig := newReplicaRig(t)
	base := sha256.Sum256([]byte("base"))
	kr := rig.provision(t, base)
	records := [][]byte{[]byte("a"), []byte("b")}
	mustAppend(t, rig.enclave, kr, base, records)

	if err := rig.enclave.Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	resp, err := rig.enclave.Call(EncodeStatusCall())
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeStatus(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Provisioned || st.Count != 2 || st.Head != chainOf(base, records) {
		t.Fatalf("status after restart = %+v, want provisioned count=2 chained head", st)
	}
	// The chain continues from the recovered head.
	ack := mustAppend(t, rig.enclave, kr, st.Head, [][]byte{[]byte("c")})
	if ack.Count != 3 {
		t.Fatalf("append after restart count = %d, want 3", ack.Count)
	}
}

// A replica refuses traffic under a key it was never provisioned with, and
// refuses sealed calls before provisioning.
func TestReplicaRefusesForeignKey(t *testing.T) {
	rig := newReplicaRig(t)
	foreign, err := aead.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fetchSuffix(t, rig.enclave, foreign, [32]byte{}); !errors.Is(err, ErrNotProvisioned) {
		t.Fatalf("sealed call before provisioning: %v, want ErrNotProvisioned", err)
	}
	base := sha256.Sum256([]byte("base"))
	rig.provision(t, base)
	if _, err := fetchSuffix(t, rig.enclave, foreign, base); !errors.Is(err, aead.ErrAuth) {
		t.Fatalf("foreign-key call: %v, want aead.ErrAuth", err)
	}
}

// setRig builds a replica set over n peers sharing one backing store
// (each under its own namespace), mirroring the host's layout.
func setRig(t *testing.T, n, quorum int) (*Set, []*tee.Enclave, *stablestore.RollbackStore) {
	t.Helper()
	backing := stablestore.NewRollbackStore(stablestore.NewMemStore())
	stores := make([]stablestore.Store, n)
	for i := range stores {
		stores[i] = stablestore.NewNamespaced(backing, fmt.Sprintf("replica%d", i))
	}
	set, peers := setRigOver(t, quorum, stores)
	return set, peers, backing
}

// setRigOver builds a replica set with one peer per given store.
func setRigOver(t *testing.T, quorum int, stores []stablestore.Store) (*Set, []*tee.Enclave) {
	t.Helper()
	platform, err := tee.NewPlatform("plat-set")
	if err != nil {
		t.Fatal(err)
	}
	att := tee.NewAttestationService()
	att.Register(platform)
	peers := make([]*tee.Enclave, len(stores))
	for i := range peers {
		peers[i] = platform.NewEnclave(Factory(), stores[i])
		peers[i].SetLabel(fmt.Sprintf("replica%d", i))
		if err := peers[i].Start(); err != nil {
			t.Fatal(err)
		}
	}
	set, err := NewSet(Config{Peers: peers, Quorum: quorum, Attestation: att})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(set.Stop)
	return set, peers
}

// The set replicates groups at quorum, tolerates a dead minority, reports
// a quorum shortfall as ErrQuorum, and serves the longest peer suffix.
func TestSetQuorumAndSuffix(t *testing.T) {
	set, peers, _ := setRig(t, 2, 2) // 3 copies total, quorum 2 → 1 peer ack
	base := sha256.Sum256([]byte("base"))
	set.Rebase(base)

	g1 := [][]byte{[]byte("r1"), []byte("r2")}
	if err := set.ReplicateGroup(g1); err != nil {
		t.Fatalf("replicate: %v", err)
	}
	if suffix := set.FetchSuffix(base); len(suffix) != 2 {
		t.Fatalf("suffix = %d records, want 2", len(suffix))
	}

	// One dead peer: quorum still reachable through the other.
	peers[0].Stop()
	if err := set.ReplicateGroup([][]byte{[]byte("r3")}); err != nil {
		t.Fatalf("replicate with one dead peer: %v", err)
	}
	if suffix := set.FetchSuffix(base); len(suffix) != 3 {
		t.Fatalf("suffix after dead peer = %d records, want 3", len(suffix))
	}

	// All peers dead: the group stays locally durable but unreplicated.
	peers[1].Stop()
	if err := set.ReplicateGroup([][]byte{[]byte("r4")}); !errors.Is(err, ErrQuorum) {
		t.Fatalf("replicate with no peers: %v, want ErrQuorum", err)
	}
}

// A peer whose mirror was rolled back (and restarted) is resynchronised in
// line with the next append: the set detects the stale head and rebuilds
// the mirror from its window, so the append still acks.
func TestSetResyncsRolledBackPeer(t *testing.T) {
	set, peers, backing := setRig(t, 1, 2) // the single peer must ack
	base := sha256.Sum256([]byte("base"))
	set.Rebase(base)
	if err := set.ReplicateGroup([][]byte{[]byte("a"), []byte("b"), []byte("c")}); err != nil {
		t.Fatal(err)
	}

	slot := stablestore.NamespacedSlot("replica0", SlotMirror)
	if !backing.RollbackLogBy(slot, 2) {
		t.Fatal("mirror rollback injection failed")
	}
	if err := peers[0].Restart(); err != nil {
		t.Fatal(err)
	}

	if err := set.ReplicateGroup([][]byte{[]byte("d")}); err != nil {
		t.Fatalf("replicate over rolled-back peer: %v", err)
	}
	backing.ClearAttack()
	if err := peers[0].Restart(); err != nil {
		t.Fatal(err)
	}
	suffix := set.FetchSuffix(base)
	if len(suffix) != 4 || string(suffix[3]) != "d" {
		t.Fatalf("resynced suffix = %d records, want the full 4-record window", len(suffix))
	}
}

// Reseed pushes a healed chain to every peer, clearing breaker state.
func TestSetReseedConverges(t *testing.T) {
	set, _, _ := setRig(t, 2, 1)
	base := sha256.Sum256([]byte("old-base"))
	set.Rebase(base)
	if err := set.ReplicateGroup([][]byte{[]byte("old")}); err != nil {
		t.Fatal(err)
	}

	healedBase := sha256.Sum256([]byte("healed-base"))
	healed := [][]byte{[]byte("h1"), []byte("h2")}
	set.Reseed(healedBase, healed)
	if set.Head() != chainOf(healedBase, healed) {
		t.Fatal("set head not rebuilt from the healed chain")
	}
	for i, st := range set.PeerStatuses() {
		if !st.Provisioned || st.Count != 2 || st.Head != set.Head() {
			t.Fatalf("peer %d after reseed = %+v, want the healed chain", i, st)
		}
	}
}
