package host

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
	"lcm/internal/wire"
)

// ecallGate parks the next batch ecall that reaches a gatedProgram and
// records the largest batch any ecall carried.
type ecallGate struct {
	armed    atomic.Bool   // park the next batch ecall
	entered  chan struct{} // the parked ecall announces itself
	proceed  chan struct{} // closed to let it through
	maxBatch atomic.Int64
}

// gatedProgram is the trusted program behind an ecallGate.
type gatedProgram struct {
	tee.Program
	gate *ecallGate
}

func (p *gatedProgram) Call(env tee.Env, payload []byte) ([]byte, error) {
	if invokes, err := core.DecodeBatchCall(payload); err == nil {
		if p.gate.armed.CompareAndSwap(true, false) {
			p.gate.entered <- struct{}{}
			<-p.gate.proceed
		}
		// The enclave serializes calls, so a plain load and store suffice.
		if n := int64(len(invokes)); n > p.gate.maxBatch.Load() {
			p.gate.maxBatch.Store(n)
		}
	}
	return p.Program.Call(env, payload)
}

// queuedAt reports how many requests wait in instance idx's batch queue.
func queuedAt(s *Server, idx int) int { return len(s.instanceAt(idx).queue) }

// Batches form only under contention: while one ecall is parked in the
// enclave, eight connections' puts queue behind it, and the next ecall
// carries them together. Every reply still verifies at its client.
func TestWriteBatchesFormUnderContention(t *testing.T) {
	const writers = 8
	gate := &ecallGate{entered: make(chan struct{}), proceed: make(chan struct{})}
	release := sync.OnceFunc(func() { close(gate.proceed) })
	defer release()
	ids := make([]uint32, writers+1)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	st := newServiceShardStack(t, stablestore.NewMemStore(), 1, ids, true, "kvs", kvs.Factory(),
		func(c *Config) {
			c.BatchSize = 16
			trusted := c.Factory
			c.Factory = func() tee.Program { return &gatedProgram{Program: trusted(), gate: gate} }
		})
	sessions := make([]*client.ShardedSession, len(ids))
	for i, id := range ids {
		sessions[i] = st.session(id)
	}

	gate.armed.Store(true)
	errs := make(chan error, len(ids))
	put := func(i int) {
		_, err := sessions[i].Do(kvs.Put(fmt.Sprintf("k%d", i), "v"))
		errs <- err
	}
	go put(writers)
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the first put never reached the enclave")
	}
	for i := 0; i < writers; i++ {
		go put(i)
	}
	for deadline := time.Now().Add(5 * time.Second); queuedAt(st.server, 0) < writers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d puts queued behind the parked ecall", queuedAt(st.server, 0), writers)
		}
	}
	gate.maxBatch.Store(0)
	release()
	for range ids {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := gate.maxBatch.Load(); got != writers {
		t.Fatalf("largest ecall after the release carried %d invokes, want %d", got, writers)
	}
	status, err := core.QueryStatus(st.server.ShardCall(0))
	if err != nil {
		t.Fatal(err)
	}
	if status.Seq != uint64(len(ids)) {
		t.Fatalf("seq = %d, want %d", status.Seq, len(ids))
	}
}

// instanceGoroutines counts the goroutines the server's methods started.
func instanceGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "created by lcm/internal/host.(*Server).")
}

// With no interval armed an instance runs one host goroutine, its
// committer: writes are ecalled and committed on the connections'
// goroutines.
func TestOneGoroutinePerInstance(t *testing.T) {
	const shards = 3
	before := instanceGoroutines()
	st := newShardStack(t, stablestore.NewMemStore(), shards, []uint32{1}, true)
	// Serve adds no goroutine before a connection arrives.
	if got := instanceGoroutines() - before; got != shards {
		t.Fatalf("%d host goroutines for %d instances, want %d", got, shards, shards)
	}
	sess := st.session(1)
	for shard := 0; shard < shards; shard++ {
		if _, err := sess.Do(kvs.Put(keyOnShard(shard, shards, "k"), "v")); err != nil {
			t.Fatal(err)
		}
	}
	// One more for the connection; nothing was handed off to a leader.
	if got := instanceGoroutines() - before; got != shards+1 {
		t.Fatalf("%d host goroutines after the puts, want %d", got, shards+1)
	}
}

// No connection starves: eight connections hammering one shard each
// complete an operation in every 100 ms of a one-second run.
func TestWriteStageLiveness(t *testing.T) {
	const (
		conns  = 8
		slice  = 100 * time.Millisecond
		slices = 10
	)
	ids := make([]uint32, conns)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	st := newShardStack(t, stablestore.NewMemStore(), 1, ids, true)
	sessions := make([]*client.ShardedSession, conns)
	for i, id := range ids {
		sessions[i] = st.session(id)
	}
	done := make([][]time.Time, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for i, sess := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := 0; time.Since(start) < slices*slice; op++ {
				if _, err := sess.Do(kvs.Put(fmt.Sprintf("k%d", op%16), fmt.Sprint(op))); err != nil {
					t.Errorf("connection %d: %v", i, err)
					return
				}
				done[i] = append(done[i], time.Now())
			}
		}()
	}
	wg.Wait()
	for i, times := range done {
		per := make([]int, slices)
		for _, at := range times {
			if k := int(at.Sub(start) / slice); k < slices {
				per[k]++
			}
		}
		for k, n := range per {
			if n == 0 {
				t.Fatalf("connection %d completed nothing in slice %d (per slice: %v)", i, k, per)
			}
		}
	}
}

// countConn counts the frames sent to it.
type countConn struct{ sent atomic.Int64 }

func (c *countConn) Send([]byte) error     { c.sent.Add(1); return nil }
func (c *countConn) Recv() ([]byte, error) { return nil, transport.ErrClosed }
func (c *countConn) Close() error          { return nil }

// unprovisionedServer starts a one-shard server whose enclave was never
// provisioned: every batch ecall fails fast, answering its requests with
// an error frame.
func unprovisionedServer(t *testing.T) *Server {
	t.Helper()
	platform, err := tee.NewPlatform("plat-cap")
	if err != nil {
		t.Fatal(err)
	}
	server, err := New(Config{
		Platform: platform,
		Factory:  core.NewTrustedFactory(core.TrustedConfig{ServiceName: "kvs", NewService: kvs.Factory()}),
		Store:    stablestore.NewMemStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	return server
}

// The batch queue is bounded: an enqueuer that finds it at the cap waits
// until a leader takes a batch, and then everything drains.
func TestEcallQueueCapBlocksThenDrains(t *testing.T) {
	server := unprovisionedServer(t)
	inst := server.instanceAt(0)
	const ecallQueueCap = 1024
	if cap(inst.queue) != ecallQueueCap {
		t.Fatalf("batch queue holds %d requests, want %d", cap(inst.queue), ecallQueueCap)
	}
	conn := &countConn{}
	req := request{conn: &connState{conn: conn}, invoke: []byte("invoke")}
	for i := 0; i < ecallQueueCap; i++ {
		if lead := server.enqueue(inst, req); lead != (i == 0) {
			t.Fatalf("enqueue %d: lead = %v", i, lead)
		}
	}
	queued := make(chan bool, 1)
	go func() {
		lead := server.enqueue(inst, req)
		queued <- true
		if lead {
			server.lead(inst)
		}
	}()
	select {
	case <-queued:
		t.Fatal("an enqueue past the cap did not wait")
	case <-time.After(50 * time.Millisecond):
	}
	server.lead(inst) // the first enqueuer's duty
	select {
	case <-queued:
	case <-time.After(5 * time.Second):
		t.Fatal("the waiting enqueuer never got a slot")
	}
	for deadline := time.Now().Add(5 * time.Second); conn.sent.Load() < ecallQueueCap+1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests answered", conn.sent.Load(), ecallQueueCap+1)
		}
	}
	if n := queuedAt(server, 0); n != 0 {
		t.Fatalf("%d requests still queued", n)
	}
}

// After Shutdown, enqueue queues nothing, and lead fails the batch it
// took and hands the stage to no successor.
func TestLeadStopsAtShutdown(t *testing.T) {
	server := unprovisionedServer(t)
	inst := server.instanceAt(0)
	conn := &countConn{}
	req := request{conn: &connState{conn: conn}, invoke: []byte("invoke")}
	server.enqueue(inst, req)
	server.enqueue(inst, req)
	server.Shutdown()
	if server.enqueue(inst, req) {
		t.Fatal("enqueue after Shutdown asked its caller to lead")
	}
	server.lead(inst) // BatchSize 1: takes one of the two
	server.wg.Wait()  // a successor, had lead spawned one
	if sent, queued := conn.sent.Load(), queuedAt(server, 0); sent != 1 || queued != 1 {
		t.Fatalf("after Shutdown: %d answered, %d queued; want 1 and 1", sent, queued)
	}
}

// A multi-invoke frame whose parts do not name strictly increasing shards
// is refused before anything is queued. Were it queued, a frame of cap+1
// parts for one shard would make its sender the shard's leader and then
// wait for queue space that only a leader frees. The shards keep serving.
func TestMultiInvokeOutOfOrderShardsRefused(t *testing.T) {
	st := newShardStack(t, stablestore.NewMemStore(), 2, []uint32{1}, true)
	conn, err := st.net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	repeated := make([]wire.ShardPart, cap(st.server.instanceAt(0).queue)+1)
	for i := range repeated {
		repeated[i] = wire.ShardPart{Shard: 0, Payload: []byte("x")}
	}
	for _, parts := range [][]wire.ShardPart{repeated, {{Shard: 1}, {Shard: 0}}} {
		if err := conn.Send(wire.EncodeMultiShardFrame(0, parts)); err != nil {
			t.Fatal(err)
		}
		answer := make(chan error, 1)
		go func() {
			frame, err := conn.Recv()
			if err == nil {
				_, err = wire.DecodeResponse(frame)
			}
			answer <- err
		}()
		select {
		case err := <-answer:
			if err == nil || !strings.Contains(err.Error(), "strictly increasing") {
				t.Fatalf("%d-part frame: got %v, want the shard-order refusal", len(parts), err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d-part frame was never answered", len(parts))
		}
	}
	sess := st.session(1)
	for shard := 0; shard < 2; shard++ {
		if _, err := sess.Do(kvs.Put(keyOnShard(shard, 2, "k"), "v")); err != nil {
			t.Fatalf("put on shard %d: %v", shard, err)
		}
	}
}
