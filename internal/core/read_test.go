package core

import (
	"sync/atomic"
	"testing"
	"time"

	"lcm/internal/kvs"
	"lcm/internal/service"
)

// gatedKVS is a kvs.Store whose SnapshotRead can be parked on entry, so a
// test can try to move the durable view while a read sits between
// fetching the snapshot's sequence number and reading its value.
type gatedKVS struct {
	*kvs.Store
	armed   atomic.Bool   // park the next SnapshotRead
	entered chan struct{} // the parked read announces itself
	proceed chan struct{} // closed to let it through
}

func (g *gatedKVS) SnapshotRead(op []byte) ([]byte, error) {
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.proceed
	}
	return g.Store.SnapshotRead(op)
}

// A read reply's Seq must name the snapshot its value came from. The read
// parks inside SnapshotRead at durable seq s1; the host then confirms a
// later write durable. Either the advance waits for the read (the reply is
// the old value at s1) or the read observes the advanced view and says so
// — never the new value sealed under the old sequence number, which is
// what HandleRead produced while it dropped the lock before reading.
func TestReadReplySeqMatchesSnapshot(t *testing.T) {
	gate := &gatedKVS{entered: make(chan struct{}), proceed: make(chan struct{})}
	r := newRigWith(t, []uint32{1, 2}, func(cfg *TrustedConfig) {
		cfg.NewService = func() service.Service {
			gate.Store = kvs.New()
			return gate
		}
	})
	if _, err := r.enclave.Call(EncodeEnableReadsCall()); err != nil {
		t.Fatalf("enable reads: %v", err)
	}
	advance := func(seq uint64) {
		if _, err := r.enclave.Call(EncodeAdvanceDurableCall(seq)); err != nil {
			t.Errorf("advance durable to %d: %v", seq, err)
		}
	}
	s1 := r.mustPut(1, "k", "old").Seq
	advance(s1)
	s2 := r.mustPut(1, "k", "new").Seq // executed and persisted, not yet confirmed

	reader := r.clients[2]
	invoke, err := reader.ReadInvoke(kvs.Get("k"))
	if err != nil {
		t.Fatal(err)
	}
	type readOutcome struct {
		reply []byte
		err   error
	}
	read := make(chan readOutcome, 1)
	gate.armed.Store(true)
	go func() {
		reply, err := r.enclave.ReadCall(invoke)
		read <- readOutcome{reply, err}
	}()
	<-gate.entered

	// The read is inside SnapshotRead. Confirm s2 durable now; with the view
	// and its sequence number under one lock this blocks until the read is
	// done, so wait for it only briefly before letting the read go on.
	advanced := make(chan struct{})
	go func() {
		defer close(advanced)
		advance(s2)
	}()
	select {
	case <-advanced:
	case <-time.After(50 * time.Millisecond):
	}
	close(gate.proceed)
	out := <-read
	<-advanced
	if out.err != nil {
		t.Fatalf("read: %v", out.err)
	}
	res, err := reader.ProcessReadReply(out.reply)
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	kv, err := kvs.DecodeResult(res.Value)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]string{s1: "old", s2: "new"}[res.Seq]
	if string(kv.Value) != want {
		t.Fatalf("read sealed Seq %d with value %q; the snapshot at %d holds %q", res.Seq, kv.Value, res.Seq, want)
	}
}
