package host

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lcm/internal/client"
	"lcm/internal/consistency"
	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
	"lcm/internal/wire"
)

// stack is a complete deployment: platform, attestation, storage, server
// over an in-memory network, and a bootstrapped admin.
type stack struct {
	t           *testing.T
	net         *transport.InmemNetwork
	server      *Server
	storage     *stablestore.RollbackStore
	attestation *tee.AttestationService
	admin       *core.Admin
	listener    transport.Listener
}

func newStack(t *testing.T, clientIDs []uint32, batch int) *stack {
	t.Helper()
	attestation := tee.NewAttestationService()
	platform, err := tee.NewPlatform("plat-1")
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
		Platform:  platform,
		Factory:   factory,
		Store:     storage,
		BatchSize: batch,
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
	s := &stack{
		t:           t,
		net:         net,
		server:      server,
		storage:     storage,
		attestation: attestation,
		admin:       admin,
		listener:    listener,
	}
	t.Cleanup(func() {
		listener.Close()
		server.Shutdown()
	})
	return s
}

func (s *stack) session(id uint32) *client.Session {
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

func TestEndToEndSingleClient(t *testing.T) {
	s := newStack(t, []uint32{1}, 1)
	c := s.session(1)

	res, err := c.Do(kvs.Put("greeting", "hello"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if res.Seq != 1 {
		t.Fatalf("seq = %d", res.Seq)
	}
	res, err = c.Do(kvs.Get("greeting"))
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	kv, err := kvs.DecodeResult(res.Value)
	if err != nil || !kv.Found || string(kv.Value) != "hello" {
		t.Fatalf("Get = %+v, %v", kv, err)
	}
	// Single client: own ops become stable immediately upon the next
	// invocation's acknowledgement.
	if res.Stable != 1 {
		t.Fatalf("stable = %d, want 1", res.Stable)
	}
}

func TestEndToEndConcurrentClients(t *testing.T) {
	const n = 8
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	s := newStack(t, ids, 16)
	log := consistency.NewLog()

	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			c := s.session(id)
			for op := 0; op < 25; op++ {
				key := fmt.Sprintf("key-%d", op%5)
				var opBytes []byte
				if op%2 == 0 {
					opBytes = kvs.Put(key, fmt.Sprintf("c%d-%d", id, op))
				} else {
					opBytes = kvs.Get(key)
				}
				res, err := c.Do(opBytes)
				if err != nil {
					t.Errorf("client %d op %d: %v", id, op, err)
					return
				}
				log.Record(consistency.Event{
					Client: id,
					Seq:    res.Seq,
					Stable: res.Stable,
					Op:     opBytes,
					Result: res.Value,
					Chain:  clientChain(c),
				})
			}
		}(id)
	}
	wg.Wait()

	if log.Len() != n*25 {
		t.Fatalf("recorded %d events, want %d", log.Len(), n*25)
	}
	if err := log.Check(kvs.Factory()); err != nil {
		t.Fatalf("honest run not fork-linearizable: %v", err)
	}
}

// clientChain extracts the client's current chain value through its
// persisted state (the public way to observe it).
func clientChain(c *client.Session) [32]byte {
	return c.State().HC
}

func TestBatchingPreservesCorrectness(t *testing.T) {
	for _, batch := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			ids := []uint32{1, 2, 3, 4}
			s := newStack(t, ids, batch)
			var wg sync.WaitGroup
			for _, id := range ids {
				wg.Add(1)
				go func(id uint32) {
					defer wg.Done()
					c := s.session(id)
					for op := 0; op < 10; op++ {
						if _, err := c.Do(kvs.Put(fmt.Sprintf("k%d", id), "v")); err != nil {
							t.Errorf("client %d: %v", id, err)
							return
						}
					}
				}(id)
			}
			wg.Wait()
			status, err := core.QueryStatus(s.server.ECall)
			if err != nil {
				t.Fatal(err)
			}
			if status.Seq != 40 {
				t.Fatalf("t = %d, want 40", status.Seq)
			}
		})
	}
}

func TestServerSurvivesHonestEnclaveRestart(t *testing.T) {
	s := newStack(t, []uint32{1}, 1)
	c := s.session(1)
	if _, err := c.Do(kvs.Put("k", "v")); err != nil {
		t.Fatal(err)
	}
	if err := s.server.Enclave(0).Restart(); err != nil {
		t.Fatal(err)
	}
	res, err := c.Do(kvs.Get("k"))
	if err != nil {
		t.Fatalf("op after restart: %v", err)
	}
	kv, _ := kvs.DecodeResult(res.Value)
	if !kv.Found || string(kv.Value) != "v" {
		t.Fatalf("read after restart = %+v", kv)
	}
}

// Full-stack rollback attack: the server rolls its storage back and
// restarts the enclave; the client's next operation is answered with a
// server-side halt error, and the enclave records the violation.
func TestRollbackAttackEndToEnd(t *testing.T) {
	s := newStack(t, []uint32{1}, 1)
	c := s.session(1)
	for i := 0; i < 3; i++ {
		if _, err := c.Do(kvs.Put("k", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.server.AttackRollback(0, 2); err != nil {
		t.Fatalf("AttackRollback: %v", err)
	}
	_, err := c.Do(kvs.Get("k"))
	if err == nil {
		t.Fatal("operation succeeded after rollback attack")
	}
	if s.server.Enclave(0).HaltedErr() == nil {
		t.Fatal("enclave did not halt on the rollback")
	}
}

// Full-stack forking attack: the server forks the enclave and partitions
// clients. Within partitions everything works; stability stalls; crossing
// the partition triggers detection; and the recorded histories are
// fork-linearizable — exactly LCM's guarantee.
func TestForkingAttackEndToEnd(t *testing.T) {
	s := newStack(t, []uint32{1, 2}, 1)
	log := consistency.NewLog()

	record := func(c *client.Session, op []byte, res *core.Result) {
		log.Record(consistency.Event{
			Client: c.ID(), Seq: res.Seq, Stable: res.Stable,
			Op: op, Result: res.Value, Chain: clientChain(c),
		})
	}

	// Honest prefix: both clients connected to enclave 0.
	c1 := s.session(1)
	op := kvs.Put("k", "honest")
	res, err := c1.Do(op)
	if err != nil {
		t.Fatal(err)
	}
	record(c1, op, res)

	// Fork: new connections land on the forked instance.
	if _, err := s.server.AttackFork(0); err != nil {
		t.Fatalf("AttackFork: %v", err)
	}
	c2 := s.session(2) // routed to the fork

	// Both partitions make progress with diverging state.
	op1 := kvs.Put("k", "partition-1")
	res1, err := c1.Do(op1)
	if err != nil {
		t.Fatalf("partition 1: %v", err)
	}
	record(c1, op1, res1)

	op2 := kvs.Put("k", "partition-2")
	res2, err := c2.Do(op2)
	if err != nil {
		t.Fatalf("partition 2: %v", err)
	}
	record(c2, op2, res2)
	if res1.Seq != res2.Seq {
		t.Fatalf("forks assigned different seqs %d/%d — expected identical (diverged)", res1.Seq, res2.Seq)
	}

	// Stability stalls in both partitions: the missing partner never
	// acknowledges.
	for i := 0; i < 3; i++ {
		op := kvs.Get("k")
		res, err := c1.Do(op)
		if err != nil {
			t.Fatalf("partition 1 continued: %v", err)
		}
		record(c1, op, res)
		if res.Stable > 1 {
			t.Fatalf("stability advanced to %d under fork", res.Stable)
		}
	}

	// The recorded histories must be fork-linearizable (LCM's guarantee
	// under attack).
	if err := log.Check(kvs.Factory()); err != nil {
		t.Fatalf("forked histories not fork-linearizable: %v", err)
	}

	// Join: client 2 reconnects and is routed to enclave 0, carrying its
	// fork context → detection.
	s.server.RouteNewConnsTo(0)
	conn, err := s.net.Dial("lcm-server")
	if err != nil {
		t.Fatal(err)
	}
	c2b := client.Resume(conn, c2.State(), s.admin.CommunicationKey(), client.Config{Timeout: 5 * time.Second})
	defer c2b.Close()
	if _, err := c2b.Do(kvs.Get("k")); err == nil {
		t.Fatal("cross-partition operation succeeded — fork not detected")
	}
	if s.server.Enclave(0).HaltedErr() == nil {
		t.Fatal("primary enclave did not record the violation")
	}
}

// Message replay by the server is detected (and halts the enclave).
func TestReplayAttackEndToEnd(t *testing.T) {
	s := newStack(t, []uint32{1}, 1)

	// Capture the client's raw invoke by tapping the connection.
	conn, err := s.net.Dial("lcm-server")
	if err != nil {
		t.Fatal(err)
	}
	var captured []byte
	tap := &tapConn{Conn: conn, onSend: func(frame []byte) {
		// Invoke frames are [kind][shard][ciphertext]; capture the
		// ciphertext the way a wiretapping host would.
		if len(frame) > 2 && frame[0] == wire.FrameInvoke {
			captured = append([]byte(nil), frame[2:]...)
		}
	}}
	c := client.New(tap, 1, s.admin.CommunicationKey(), client.Config{Timeout: 5 * time.Second})
	defer c.Close()

	if _, err := c.Do(kvs.Put("k", "v")); err != nil {
		t.Fatal(err)
	}
	if captured == nil {
		t.Fatal("no invoke captured")
	}
	if err := s.server.AttackReplay(0, captured); !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("replay = %v, want enclave halt", err)
	}
}

type tapConn struct {
	transport.Conn
	onSend func([]byte)
}

func (c *tapConn) Send(msg []byte) error {
	c.onSend(msg)
	return c.Conn.Send(msg)
}

// Crash tolerance over the wire: the reply is dropped once; the client's
// timeout/retry path recovers the cached result (Sec. 4.6.1).
func TestClientTimeoutRetryEndToEnd(t *testing.T) {
	s := newStack(t, []uint32{1}, 1)

	conn, err := s.net.Dial("lcm-server")
	if err != nil {
		t.Fatal(err)
	}
	// Drop the first reply on the receive path.
	dropper := &dropOnceConn{Conn: conn}
	c := client.New(dropper, 1, s.admin.CommunicationKey(), client.Config{
		Timeout: 300 * time.Millisecond,
		Retries: 2,
	})
	defer c.Close()

	res, err := c.Do(kvs.Put("k", "v"))
	if err != nil {
		t.Fatalf("Do with dropped reply: %v", err)
	}
	if res.Seq != 1 {
		t.Fatalf("seq = %d", res.Seq)
	}
	// Exactly one execution: t is 1.
	status, err := core.QueryStatus(s.server.ECall)
	if err != nil {
		t.Fatal(err)
	}
	if status.Seq != 1 {
		t.Fatalf("t = %d, want 1 (operation must not re-execute)", status.Seq)
	}
}

type dropOnceConn struct {
	transport.Conn
	mu      sync.Mutex
	dropped bool
}

func (c *dropOnceConn) Recv() ([]byte, error) {
	msg, err := c.Conn.Recv()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.dropped && len(msg) > 0 && msg[0] == wire.StatusOK {
		c.dropped = true
		// Swallow this reply; the caller keeps waiting.
		return c.Conn.Recv()
	}
	return msg, nil
}

// A client session resumed from persisted state continues seamlessly.
func TestSessionResumeAfterClientCrash(t *testing.T) {
	s := newStack(t, []uint32{1}, 1)
	c := s.session(1)
	if _, err := c.Do(kvs.Put("k", "v1")); err != nil {
		t.Fatal(err)
	}
	state := c.State()
	c.Close()

	conn, err := s.net.Dial("lcm-server")
	if err != nil {
		t.Fatal(err)
	}
	resumed := client.Resume(conn, state, s.admin.CommunicationKey(), client.Config{Timeout: 5 * time.Second})
	defer resumed.Close()
	res, err := resumed.Do(kvs.Get("k"))
	if err != nil {
		t.Fatalf("resumed Do: %v", err)
	}
	if res.Seq != 2 {
		t.Fatalf("resumed seq = %d", res.Seq)
	}
}

// Admin over the network: attestation, provisioning and membership all
// flow through FrameECall pass-through.
func TestRemoteAdminOverNetwork(t *testing.T) {
	// Build a stack manually without in-process bootstrap.
	attestation := tee.NewAttestationService()
	platform, _ := tee.NewPlatform("plat-1")
	attestation.Register(platform)
	storage := stablestore.NewMemStore()
	server, err := New(Config{
		Platform: platform,
		Factory: core.NewTrustedFactory(core.TrustedConfig{
			ServiceName: "kvs",
			NewService:  kvs.Factory(),
			Attestation: attestation,
		}),
		Store:     storage,
		BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInmemNetwork()
	listener, _ := net.Listen("srv")
	go server.Serve(listener)
	defer func() {
		listener.Close()
		server.Shutdown()
	}()

	adminConn, err := net.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	call, closeAdmin := client.AdminConn(adminConn)
	defer closeAdmin()

	admin := core.NewAdmin(attestation, core.ProgramIdentity("kvs"))
	if err := admin.Bootstrap(call, []uint32{1}); err != nil {
		t.Fatalf("remote Bootstrap: %v", err)
	}
	if err := admin.Join(call, 2); err != nil {
		t.Fatalf("remote Join: %v", err)
	}
	status, err := core.QueryStatus(call)
	if err != nil || status.NumClients != 2 {
		t.Fatalf("status = %+v, %v", status, err)
	}

	// And a client can work.
	cconn, _ := net.Dial("srv")
	c := client.New(cconn, 1, admin.CommunicationKey(), client.Config{Timeout: 5 * time.Second})
	defer c.Close()
	if _, err := c.Do(kvs.Put("k", "v")); err != nil {
		t.Fatalf("client after remote bootstrap: %v", err)
	}
}

// The whole stack also runs over real TCP.
func TestEndToEndOverTCP(t *testing.T) {
	attestation := tee.NewAttestationService()
	platform, _ := tee.NewPlatform("plat-1")
	attestation.Register(platform)
	server, err := New(Config{
		Platform: platform,
		Factory: core.NewTrustedFactory(core.TrustedConfig{
			ServiceName: "kvs",
			NewService:  kvs.Factory(),
			Attestation: attestation,
		}),
		Store:     stablestore.NewMemStore(),
		BatchSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	listener, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(listener)
	defer func() {
		listener.Close()
		server.Shutdown()
	}()

	admin := core.NewAdmin(attestation, core.ProgramIdentity("kvs"))
	if err := admin.Bootstrap(server.ECall, []uint32{1, 2}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, id := range []uint32{1, 2} {
		wg.Add(1)
		go func(id uint32) {
			defer wg.Done()
			conn, err := transport.DialTCP(listener.Addr())
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			c := client.New(conn, id, admin.CommunicationKey(), client.Config{Timeout: 5 * time.Second})
			defer c.Close()
			for i := 0; i < 10; i++ {
				if _, err := c.Do(kvs.Put(fmt.Sprintf("k-%d-%d", id, i), "v")); err != nil {
					t.Errorf("client %d: %v", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
}
