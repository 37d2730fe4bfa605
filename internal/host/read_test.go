package host

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/service"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
)

// readStack is a deployment with the snapshot-read path enabled.
type readStack struct {
	t        *testing.T
	net      *transport.InmemNetwork
	server   *Server
	storage  *stablestore.RollbackStore
	admin    *core.Admin
	listener transport.Listener
}

func newReadStack(t *testing.T, clientIDs []uint32, batch int, groupCommit bool) *readStack {
	t.Helper()
	attestation := tee.NewAttestationService()
	platform, err := tee.NewPlatform("plat-read")
	if err != nil {
		t.Fatal(err)
	}
	attestation.Register(platform)
	storage := stablestore.NewRollbackStore(stablestore.NewMemStore())
	factory := core.NewTrustedFactory(core.TrustedConfig{
		ServiceName: "kvs",
		NewService:  kvs.Factory(),
		Attestation: attestation,
	})
	server, err := New(Config{
		Platform:      platform,
		Factory:       factory,
		Store:         storage,
		BatchSize:     batch,
		GroupCommit:   groupCommit,
		SnapshotReads: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInmemNetwork()
	listener, err := net.Listen("lcm-server")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(listener)
	admin := core.NewAdmin(attestation, core.ProgramIdentity("kvs"))
	if err := admin.Bootstrap(server.ECall, clientIDs); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	s := &readStack{t: t, net: net, server: server, storage: storage, admin: admin, listener: listener}
	t.Cleanup(func() {
		listener.Close()
		server.Shutdown()
	})
	return s
}

func (s *readStack) session(id uint32) *client.Session {
	s.t.Helper()
	conn, err := s.net.Dial("lcm-server")
	if err != nil {
		s.t.Fatal(err)
	}
	sess := client.New(conn, id, s.admin.CommunicationKey(), client.Config{
		Timeout: 5 * time.Second,
		Retries: 1,
	})
	s.t.Cleanup(func() { sess.Close() })
	return sess
}

func TestSnapshotReadBasic(t *testing.T) {
	s := newReadStack(t, []uint32{1}, 1, false)
	c := s.session(1)

	wres, err := c.Do(kvs.Put("k", "v1"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	rres, err := c.DoRead(kvs.Get("k"))
	if err != nil {
		t.Fatalf("DoRead: %v", err)
	}
	kv, err := kvs.DecodeResult(rres.Value)
	if err != nil || !kv.Found || string(kv.Value) != "v1" {
		t.Fatalf("DoRead = %+v, %v", kv, err)
	}
	// Read-your-writes: the snapshot must cover the acknowledged write.
	if rres.Seq < wres.Seq {
		t.Fatalf("read snapshot seq %d < write seq %d", rres.Seq, wres.Seq)
	}
	// Overwrite and read again: the new value must be visible once its
	// reply was processed.
	if _, err := c.Do(kvs.Put("k", "v2")); err != nil {
		t.Fatalf("Put v2: %v", err)
	}
	rres, err = c.DoRead(kvs.Get("k"))
	if err != nil {
		t.Fatalf("DoRead v2: %v", err)
	}
	if kv, _ := kvs.DecodeResult(rres.Value); string(kv.Value) != "v2" {
		t.Fatalf("DoRead after overwrite = %q, want v2", kv.Value)
	}
	// Scans classify as read-only too.
	rres, err = c.DoRead(kvs.Scan("k", 0))
	if err != nil {
		t.Fatalf("DoRead scan: %v", err)
	}
	scan, err := kvs.DecodeScanResult(rres.Value)
	if err != nil || len(scan) != 1 || string(scan[0].Value) != "v2" {
		t.Fatalf("DoRead scan = %+v, %v", scan, err)
	}
}

// TestSnapshotReadMatchesSerialized is the snapshot-read ≡ serialized-loop
// property: against a quiescent store, every read-only op must produce
// the same service-level result through DoRead (concurrent read path,
// durable snapshot) as through Do (serialized writer loop).
func TestSnapshotReadMatchesSerialized(t *testing.T) {
	s := newReadStack(t, []uint32{1}, 4, true)
	c := s.session(1)

	for i := 0; i < 40; i++ {
		key := fmt.Sprintf("key-%02d", i%10)
		if _, err := c.Do(kvs.Put(key, fmt.Sprintf("val-%03d", i))); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
	}
	ops := [][]byte{
		kvs.Get("key-00"),
		kvs.Get("key-07"),
		kvs.Get("missing"),
		kvs.Scan("key-", 0),
		kvs.Scan("key-0", 3),
		kvs.Scan("nope", 0),
	}
	for i, op := range ops {
		serialized, err := c.Do(op)
		if err != nil {
			t.Fatalf("op %d via Do: %v", i, err)
		}
		pooled, err := c.DoRead(op)
		if err != nil {
			t.Fatalf("op %d via DoRead: %v", i, err)
		}
		if string(serialized.Value) != string(pooled.Value) {
			t.Fatalf("op %d: Do=%q DoRead=%q", i, serialized.Value, pooled.Value)
		}
	}
}

// TestSnapshotReadStress interleaves concurrent snapshot readers with
// writer batches, group commit and enough writes to cross compaction
// points, then fires a rollback attack. Run under -race this exercises
// every cross-goroutine handoff of the read path. Invariants: while the
// host is honest no read fails, each reader observes non-decreasing
// values per key (monotonic snapshots), and a reader never sees a value
// newer than the writer's last acknowledged write.
func TestSnapshotReadStress(t *testing.T) {
	const (
		writers = 3
		readers = 3
		rounds  = 120
	)
	ids := []uint32{1, 2, 3, 4, 5, 6}
	s := newReadStack(t, ids, 8, true)

	// lastAck[w] is writer w's most recently acknowledged value number.
	var lastAck [writers]int64
	var ackMu sync.Mutex

	writerSess := make([]*client.Session, writers)
	readerSess := make([]*client.Session, readers)
	for w := range writerSess {
		writerSess[w] = s.session(ids[w])
	}
	for r := range readerSess {
		readerSess[r] = s.session(ids[writers+r])
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := writerSess[w]
			key := fmt.Sprintf("stress-%d", w)
			for i := 1; i <= rounds; i++ {
				if _, err := c.Do(kvs.Put(key, fmt.Sprintf("%06d", i))); err != nil {
					t.Errorf("writer %d round %d: %v", w, i, err)
					return
				}
				ackMu.Lock()
				lastAck[w] = int64(i)
				ackMu.Unlock()
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := readerSess[r]
			seen := make(map[string]int64)
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("stress-%d", i%writers)
				res, err := c.DoRead(kvs.Get(key))
				if err != nil {
					t.Errorf("reader %d round %d: %v", r, i, err)
					return
				}
				kv, err := kvs.DecodeResult(res.Value)
				if err != nil {
					t.Errorf("reader %d round %d decode: %v", r, i, err)
					return
				}
				var val int64
				if kv.Found {
					fmt.Sscanf(string(kv.Value), "%d", &val)
				}
				if prev := seen[key]; val < prev {
					t.Errorf("reader %d: key %s regressed %d -> %d", r, key, prev, val)
					return
				}
				seen[key] = val
				ackMu.Lock()
				ack := lastAck[i%writers]
				ackMu.Unlock()
				// The snapshot can lag the ack we sampled but never lead
				// it: a read must not observe a write that is not durable
				// (its reply is released only after the advance).
				if val > ack+1 {
					// +1: the write may have been acked between our read
					// and the sample. More than one ahead is impossible —
					// writers are sequential.
					t.Errorf("reader %d: key %s read %d with last ack %d", r, key, val, ack)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Rollback the shard and verify the read path participates in
	// detection. The truncated suffix holds the final batches of SOME of
	// the writers (batching is nondeterministic, so not necessarily all
	// three); a writer whose context is ahead of the rolled-back V fails
	// the read-path context check and halts the enclave. A writer whose
	// context survived the truncation reads successfully — until a peer's
	// read halts the shard. So: at least one of the three reads must
	// detect, and afterwards the shard must refuse writes.
	if err := s.server.AttackRollback(0, 4); err != nil {
		t.Fatalf("AttackRollback: %v", err)
	}
	detected := 0
	for w := 0; w < writers; w++ {
		_, err := writerSess[w].DoRead(kvs.Get(fmt.Sprintf("stress-%d", w)))
		if err == nil {
			continue
		}
		if !strings.Contains(err.Error(), "halt") && !errors.Is(err, core.ErrViolationDetected) {
			t.Fatalf("writer %d DoRead after rollback: %v; want halt/violation", w, err)
		}
		detected++
	}
	if detected == 0 {
		t.Fatal("no writer's read detected the rollback; want at least one")
	}
	// And the halt is sticky: writes are refused too.
	if _, err := readerSess[0].Do(kvs.Put("stress-x", "after")); err == nil {
		t.Fatal("write after read-path detection succeeded; want halted enclave")
	}
}

// TestSnapshotReadWriteOpHalts verifies the enclave-side classification
// backstop: a state-changing op smuggled down the read path must halt the
// enclave, not execute.
func TestSnapshotReadWriteOpHalts(t *testing.T) {
	s := newReadStack(t, []uint32{1}, 1, false)
	c := s.session(1)
	if _, err := c.Do(kvs.Put("k", "v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := c.DoRead(kvs.Put("k", "evil")); err == nil {
		t.Fatal("write op on read path succeeded; want halt")
	}
	// The enclave halted; subsequent writes are refused too.
	if _, err := c.Do(kvs.Put("k2", "v")); err == nil {
		t.Fatal("write after read-path violation succeeded; want halted enclave")
	}
}

// TestSnapshotReadsDisabled: without Config.SnapshotReads the host
// refuses FrameReadInvoke with a descriptive error.
func TestSnapshotReadsDisabled(t *testing.T) {
	attestation := tee.NewAttestationService()
	platform, err := tee.NewPlatform("plat-noread")
	if err != nil {
		t.Fatal(err)
	}
	attestation.Register(platform)
	factory := core.NewTrustedFactory(core.TrustedConfig{
		ServiceName: "kvs",
		NewService:  kvs.Factory(),
		Attestation: attestation,
	})
	server, err := New(Config{
		Platform: platform,
		Factory:  factory,
		Store:    stablestore.NewMemStore(),
	})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInmemNetwork()
	listener, err := net.Listen("lcm-server")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(listener)
	defer func() {
		listener.Close()
		server.Shutdown()
	}()
	admin := core.NewAdmin(attestation, core.ProgramIdentity("kvs"))
	if err := admin.Bootstrap(server.ECall, []uint32{1}); err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	conn, err := net.Dial("lcm-server")
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(conn, 1, admin.CommunicationKey(), client.Config{Timeout: 2 * time.Second})
	defer c.Close()
	if _, err := c.Do(kvs.Put("k", "v")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := c.DoRead(kvs.Get("k")); err == nil ||
		!strings.Contains(err.Error(), "snapshot reads disabled") {
		t.Fatalf("DoRead on disabled deployment: %v; want disabled error", err)
	}
}

// readGate parks the next snapshot read that reaches a gatedKVS.
type readGate struct {
	armed   atomic.Bool   // park the next SnapshotRead
	entered chan struct{} // the parked read announces itself
	proceed chan struct{} // closed to let it through
}

// gatedKVS is a kvs.Store whose SnapshotRead can be parked on entry.
type gatedKVS struct {
	*kvs.Store
	gate *readGate
}

func (g *gatedKVS) SnapshotRead(op []byte) ([]byte, error) {
	if g.gate.armed.CompareAndSwap(true, false) {
		g.gate.entered <- struct{}{}
		<-g.gate.proceed
	}
	return g.Store.SnapshotRead(op)
}

// A read executes on the goroutine of the connection it arrived on, so a
// read parked inside SnapshotRead holds up only its own connection: while
// connection A's read sits in shard 0's service, connection B still reads
// both shards and writes shard 1. (A write to shard 0 would wait for the
// parked read whatever the host does: its durability advance moves the
// snapshot the read holds, see core/read.go.)
func TestSnapshotReadParkedHoldsUpOnlyItsConnection(t *testing.T) {
	gate := &readGate{entered: make(chan struct{}), proceed: make(chan struct{})}
	release := sync.OnceFunc(func() { close(gate.proceed) })
	defer release()
	s := newServiceShardStack(t, stablestore.NewMemStore(), 2, []uint32{1, 2}, true, "kvs",
		func() service.Service { return &gatedKVS{Store: kvs.New(), gate: gate} },
		func(c *Config) { c.SnapshotReads = true })
	a, b := s.session(1), s.session(2)
	k0, k1 := keyOnShard(0, 2, "k"), keyOnShard(1, 2, "k")
	for _, k := range []string{k0, k1} {
		if _, err := b.Do(kvs.Put(k, "v")); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}

	gate.armed.Store(true)
	parked := make(chan error, 1)
	go func() {
		_, err := a.DoReadOn(0, kvs.Get(k0))
		parked <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("connection A's read never reached the service")
	}

	other := make(chan error, 1)
	go func() {
		other <- func() error {
			for i := 0; i < 5; i++ {
				if _, err := b.DoReadOn(0, kvs.Get(k0)); err != nil {
					return fmt.Errorf("read shard 0: %w", err)
				}
				if _, err := b.DoReadOn(1, kvs.Get(k1)); err != nil {
					return fmt.Errorf("read shard 1: %w", err)
				}
				if _, err := b.DoOn(1, kvs.Put(k1, fmt.Sprint(i))); err != nil {
					return fmt.Errorf("write shard 1: %w", err)
				}
			}
			return nil
		}()
	}()
	select {
	case err := <-other:
		if err != nil {
			t.Fatalf("connection B: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("connection B was held up by the read parked on connection A")
	}
	release()
	if err := <-parked; err != nil {
		t.Fatalf("parked read: %v", err)
	}
}

// appendGateStore parks the next log append, once gate.armed is set,
// before it reaches the store: its batch has executed, nothing of it is
// durable.
type appendGateStore struct {
	*stablestore.MemStore
	gate *readGate
}

func (s *appendGateStore) park() {
	if s.gate.armed.CompareAndSwap(true, false) {
		s.gate.entered <- struct{}{}
		<-s.gate.proceed
	}
}

func (s *appendGateStore) Append(slot string, record []byte) error {
	s.park()
	return s.MemStore.Append(slot, record)
}

func (s *appendGateStore) AppendGroup(slot string, records [][]byte) error {
	s.park()
	return s.MemStore.AppendGroup(slot, records)
}

// A restart leaves snapshot reads un-armed, and the service records no
// pre-image for the writes that follow. The first read re-arms through
// the persistence barrier and must see every acknowledged write; after
// that, a read racing a put whose batch has executed but is not yet
// durable returns the durable value.
func TestSnapshotReadLazyRearmAfterRestart(t *testing.T) {
	gate := &readGate{entered: make(chan struct{}), proceed: make(chan struct{})}
	release := sync.OnceFunc(func() { close(gate.proceed) })
	defer release()
	store := &appendGateStore{MemStore: stablestore.NewMemStore(), gate: gate}
	s := newServiceShardStack(t, store, 1, []uint32{1, 2}, true, "kvs", kvs.Factory(),
		func(c *Config) { c.SnapshotReads = true })
	reader, writer := s.session(1), s.session(2)
	const n = 12
	key := func(i int) string { return fmt.Sprintf("key-%02d", i) }
	for i := 0; i < n/2; i++ {
		if _, err := writer.Do(kvs.Put(key(i), "v1")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if _, err := reader.DoRead(kvs.Get(key(0))); err != nil {
		t.Fatalf("read before restart: %v", err)
	}

	if err := s.server.instanceAt(0).restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	var last uint64
	for i := 0; i < n; i++ {
		res, err := writer.Do(kvs.Put(key(i), "v2"))
		if err != nil {
			t.Fatalf("put %d after restart: %v", i, err)
		}
		last = res.Seq
	}

	res, err := reader.DoRead(kvs.Scan("key-", 0))
	if err != nil {
		t.Fatalf("first read after restart: %v", err)
	}
	if res.Seq < last {
		t.Fatalf("re-armed snapshot at %d, before the last acknowledged write %d", res.Seq, last)
	}
	entries, err := kvs.DecodeScanResult(res.Value)
	if err != nil || len(entries) != n {
		t.Fatalf("scan after re-arm = %d entries, %v; want %d", len(entries), err, n)
	}
	for _, e := range entries {
		if string(e.Value) != "v2" {
			t.Fatalf("%s = %q after re-arm, want v2", e.Key, e.Value)
		}
	}

	gate.armed.Store(true)
	put := make(chan error, 1)
	go func() {
		_, err := writer.Do(kvs.Put(key(0), "v3"))
		put <- err
	}()
	select {
	case <-gate.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the put never reached the log")
	}
	res, err = reader.DoRead(kvs.Get(key(0)))
	if err != nil {
		t.Fatalf("read racing the put: %v", err)
	}
	if kv, _ := kvs.DecodeResult(res.Value); string(kv.Value) != "v2" {
		t.Fatalf("read racing the put = %q, want the durable v2", kv.Value)
	}
	release()
	if err := <-put; err != nil {
		t.Fatalf("gated put: %v", err)
	}
	res, err = reader.DoRead(kvs.Get(key(0)))
	if err != nil {
		t.Fatalf("read after the put: %v", err)
	}
	if kv, _ := kvs.DecodeResult(res.Value); string(kv.Value) != "v3" {
		t.Fatalf("read after the put = %q, want v3", kv.Value)
	}
}

// verdictStore parks every log append while armed and completes it with
// the error the test sends (nil lets it through).
type verdictStore struct {
	*stablestore.MemStore
	armed   atomic.Bool
	entered chan struct{}
	verdict chan error
}

func (s *verdictStore) AppendGroup(slot string, records [][]byte) error {
	if s.armed.Load() {
		s.entered <- struct{}{}
		if err := <-s.verdict; err != nil {
			return err
		}
	}
	return s.MemStore.AppendGroup(slot, records)
}

// A snapshot read publishes q while a later batch has executed but is not
// durable; that batch's append is then lost, and the enclave restarts
// before the next record. The reader's next write must not see q below
// what its read saw: a read's q may only count acknowledgements that are
// on stable storage.
func TestSnapshotReadStableSurvivesRestart(t *testing.T) {
	store := &verdictStore{MemStore: stablestore.NewMemStore(),
		entered: make(chan struct{}), verdict: make(chan error)}
	s := newServiceShardStack(t, store, 1, []uint32{1, 2, 3}, true, "kvs", kvs.Factory(),
		func(c *Config) { c.SnapshotReads = true })
	reader, a, b := s.session(1), s.session(2), s.session(3)
	for i, c := range []*client.ShardedSession{reader, a, b, a} { // t = 1..4
		if _, err := c.Do(kvs.Put(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	awaitAppend := func(what string) {
		t.Helper()
		select {
		case <-store.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never reached the log", what)
		}
	}

	// t = 5 (b) parks at the log; t = 6 (a, acknowledging 4) executes
	// behind it. With V's acknowledgements {0, 4, 3} the majority is 3,
	// but only {0, 2, 3} — majority 2 — is durable.
	store.armed.Store(true)
	bDone, aDone := make(chan error, 1), make(chan error, 1)
	go func() { _, err := b.Do(kvs.Put("b", "v")); bDone <- err }()
	awaitAppend("t = 5")
	go func() { _, err := a.Do(kvs.Put("a", "v")); aDone <- err }()
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp, err := s.server.Enclave(0).Call(core.EncodeStatusCall())
		if err != nil {
			t.Fatal(err)
		}
		if st, err := core.DecodeStatus(resp); err == nil && st.Seq == 6 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("t = 6 never executed")
		}
		time.Sleep(time.Millisecond)
	}
	store.verdict <- nil // t = 5 is durable: the advance publishes it to readers
	if err := <-bDone; err != nil {
		t.Fatalf("put at t = 5: %v", err)
	}
	awaitAppend("t = 6")

	read, err := reader.DoRead(kvs.Get("k0"))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	store.armed.Store(false)
	store.verdict <- errors.New("injected append loss") // t = 6 is lost; the enclave restarts
	if err := <-aDone; err == nil {
		t.Fatal("the put whose append was lost succeeded")
	}

	res, err := reader.Do(kvs.Put("k0", "after"))
	if err != nil {
		t.Fatalf("write after the restart (read at seq %d saw q = %d): %v", read.Seq, read.Stable, err)
	}
	if res.Stable < read.Stable {
		t.Fatalf("q regressed from %d (read) to %d (write)", read.Stable, res.Stable)
	}
}
