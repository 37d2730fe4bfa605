package baseline

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"lcm/internal/aead"
	"lcm/internal/host"
	"lcm/internal/latency"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/tmc"
	"lcm/internal/transport"
)

// serveNative spins up a native server over an in-memory network.
func serveNative(t *testing.T, cfg NativeConfig) (*transport.InmemNetwork, *NativeServer) {
	t.Helper()
	srv, err := NewNativeServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInmemNetwork()
	l, err := net.Listen("native")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		l.Close()
		srv.Shutdown()
	})
	return net, srv
}

func TestNativeServerBasicOps(t *testing.T) {
	key, _ := aead.NewKey()
	net, _ := serveNative(t, NativeConfig{Key: key})
	conn, err := net.Dial("native")
	if err != nil {
		t.Fatal(err)
	}
	s := NewNativeSession(conn, key)
	defer s.Close()

	if _, found, err := s.Get("absent"); err != nil || found {
		t.Fatalf("Get(absent) = %v, %v", found, err)
	}
	if err := s.Put("k", "v"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	value, found, err := s.Get("k")
	if err != nil || !found || string(value) != "v" {
		t.Fatalf("Get = %q, %v, %v", value, found, err)
	}
}

func TestNativeServerConcurrentClients(t *testing.T) {
	key, _ := aead.NewKey()
	net, _ := serveNative(t, NativeConfig{Key: key})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("native")
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			s := NewNativeSession(conn, key)
			defer s.Close()
			for i := 0; i < 50; i++ {
				k := fmt.Sprintf("k-%d-%d", g, i%5)
				if err := s.Put(k, "v"); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if _, _, err := s.Get(k); err != nil {
					t.Errorf("Get: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestNativeServerRejectsWrongKey(t *testing.T) {
	key, _ := aead.NewKey()
	wrong, _ := aead.NewKey()
	net, _ := serveNative(t, NativeConfig{Key: key})
	conn, _ := net.Dial("native")
	s := NewNativeSession(conn, wrong)
	defer s.Close()
	if _, _, err := s.Get("k"); err == nil {
		t.Fatal("request under wrong channel key succeeded")
	}
}

func TestNativeAOFSyncWritesAreSlower(t *testing.T) {
	key, _ := aead.NewKey()
	model := &latency.Model{Scale: 1, SyncWrite: 3 * time.Millisecond}
	dir := t.TempDir()

	run := func(sync bool, name string) time.Duration {
		net, _ := serveNative(t, NativeConfig{
			Key:        key,
			AOFPath:    filepath.Join(dir, name),
			SyncWrites: sync,
			Model:      model,
		})
		conn, _ := net.Dial("native")
		s := NewNativeSession(conn, key)
		defer s.Close()
		before := model.Charged() // the model's charge, not the wall clock
		for i := 0; i < 10; i++ {
			if err := s.Put("k", "v"); err != nil {
				t.Fatal(err)
			}
		}
		return model.Charged() - before
	}

	async := run(false, "async.aof")
	syncd := run(true, "sync.aof")
	if syncd < async+20*time.Millisecond {
		t.Fatalf("sync writes (%v) not meaningfully slower than async (%v)", syncd, async)
	}
}

func serveRedis(t *testing.T, cfg RedisConfig) (*transport.InmemNetwork, *RedisServer) {
	t.Helper()
	srv, err := NewRedisServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInmemNetwork()
	l, err := net.Listen("redis")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() {
		l.Close()
		srv.Shutdown()
	})
	return net, srv
}

func TestRedisServerBasicOps(t *testing.T) {
	key, _ := aead.NewKey()
	net, srv := serveRedis(t, RedisConfig{Key: key})
	conn, _ := net.Dial("redis")
	s := NewRedisSession(conn, key)
	defer s.Close()

	if err := s.Put("a", "1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", "2"); err != nil {
		t.Fatal(err)
	}
	v, found, err := s.Get("a")
	if err != nil || !found || string(v) != "1" {
		t.Fatalf("Get = %q, %v, %v", v, found, err)
	}
	if srv.Len() != 2 {
		t.Fatalf("Len = %d", srv.Len())
	}
}

// Group commit: concurrent sync writers must share fsyncs, finishing far
// faster than writers paying one fsync each.
func TestRedisGroupCommitScales(t *testing.T) {
	key, _ := aead.NewKey()
	model := &latency.Model{Scale: 1, SyncWrite: 5 * time.Millisecond}
	net, _ := serveRedis(t, RedisConfig{
		Key:        key,
		AOFPath:    filepath.Join(t.TempDir(), "redis.aof"),
		SyncWrites: true,
		Model:      model,
	})

	const clients, writes = 8, 10
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			conn, err := net.Dial("redis")
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			s := NewRedisSession(conn, key)
			defer s.Close()
			for i := 0; i < writes; i++ {
				if err := s.Put(fmt.Sprintf("k%d", g), "v"); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// The model charges 5ms per fsync round: 400ms if every one of the 80
	// writes syncs alone. Concurrent writers share rounds.
	if charged := model.Charged(); charged > 300*time.Millisecond {
		t.Fatalf("group commit did not batch fsyncs: %v charged (%d rounds) for %d writes",
			charged, charged/model.SyncWrite, clients*writes)
	}
}

// sgxStack wires the SGX baseline program into the shared host.Server.
func sgxStack(t *testing.T, counter *tmc.Counter, batch int) (*transport.InmemNetwork, *host.Server, aead.Key, *stablestore.RollbackStore) {
	t.Helper()
	key, err := aead.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	platform, err := tee.NewPlatform("plat-sgx")
	if err != nil {
		t.Fatal(err)
	}
	storage := stablestore.NewRollbackStore(stablestore.NewMemStore())
	server, err := host.New(host.Config{
		Platform:  platform,
		Factory:   NewSGXFactory(key, counter),
		Store:     storage,
		BatchSize: batch,
		StateSlot: SGXStateSlot(),
	})
	if err != nil {
		t.Fatal(err)
	}
	net := transport.NewInmemNetwork()
	l, err := net.Listen("sgx")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(l)
	t.Cleanup(func() {
		l.Close()
		server.Shutdown()
	})
	return net, server, key, storage
}

func TestSGXBaselineBasicOps(t *testing.T) {
	net, _, key, _ := sgxStack(t, nil, 4)
	conn, _ := net.Dial("sgx")
	s := NewSGXSession(conn, key)
	defer s.Close()
	if err := s.Put("k", "v"); err != nil {
		t.Fatalf("Put: %v", err)
	}
	v, found, err := s.Get("k")
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("Get = %q %v %v", v, found, err)
	}
}

func TestSGXBaselineSurvivesRestart(t *testing.T) {
	net, server, key, _ := sgxStack(t, nil, 1)
	conn, _ := net.Dial("sgx")
	s := NewSGXSession(conn, key)
	defer s.Close()
	if err := s.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	if err := server.Enclave(0).Restart(); err != nil {
		t.Fatal(err)
	}
	v, found, err := s.Get("k")
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("Get after restart = %q %v %v", v, found, err)
	}
}

// The critical negative result: plain SGX does NOT detect rollback — the
// baseline restores a stale state silently and clients observe lost
// updates. (LCM's detection of the same attack is tested in internal/core
// and internal/host.)
func TestSGXBaselineVulnerableToRollback(t *testing.T) {
	net, server, key, storage := sgxStack(t, nil, 1)
	conn, _ := net.Dial("sgx")
	s := NewSGXSession(conn, key)
	defer s.Close()

	for i := 1; i <= 3; i++ {
		if err := s.Put("k", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Roll the stored state back to the first version and restart.
	if !storage.RollbackBy(SGXStateSlot(), 2) {
		t.Fatal("rollback injection failed")
	}
	if err := server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart with stale state: %v (plain SGX must accept it)", err)
	}
	v, found, err := s.Get("k")
	if err != nil || !found {
		t.Fatalf("Get after rollback = %v %v", found, err)
	}
	if !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("value after rollback = %q; the attack should have reverted it to v1", v)
	}
}

// The SGX+TMC variant detects the same rollback immediately at recovery.
func TestSGXTMCDetectsRollback(t *testing.T) {
	counter := tmc.New(latency.None())
	net, server, key, storage := sgxStack(t, counter, 1)
	conn, _ := net.Dial("sgx")
	s := NewSGXSession(conn, key)
	defer s.Close()

	for i := 1; i <= 3; i++ {
		if err := s.Put("k", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if !storage.RollbackBy(SGXStateSlot(), 2) {
		t.Fatal("rollback injection failed")
	}
	if err := server.Enclave(0).Restart(); !errors.Is(err, tee.ErrEnclaveHalted) {
		t.Fatalf("restart with stale state = %v, want halt (TMC mismatch)", err)
	}
}

// The TMC variant pays the counter's latency on every (unbatched) request.
func TestSGXTMCThroughputCappedByCounter(t *testing.T) {
	model := &latency.Model{Scale: 1, TMCIncrement: 10 * time.Millisecond}
	counter := tmc.New(model)
	net, _, key, _ := sgxStack(t, counter, 1)
	conn, _ := net.Dial("sgx")
	s := NewSGXSession(conn, key)
	defer s.Close()

	const ops = 8
	for i := 0; i < ops; i++ {
		if err := s.Put("k", "v"); err != nil {
			t.Fatal(err)
		}
	}
	if charged := model.Charged(); charged != ops*10*time.Millisecond {
		t.Fatalf("%d ops were charged %v; each must pay the 10ms TMC increment", ops, charged)
	}
	if counter.Increments() != ops {
		t.Fatalf("counter incremented %d times, want %d", counter.Increments(), ops)
	}
}

func TestAOFGroupCommitAsyncMode(t *testing.T) {
	aof, err := NewAOF(filepath.Join(t.TempDir(), "x.aof"), false, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer aof.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := aof.AppendGroup([]byte("record")); err != nil {
					t.Errorf("AppendGroup: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
