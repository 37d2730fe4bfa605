package host

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"lcm/internal/client"
	"lcm/internal/consistency"
	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/stablestore"
	"lcm/internal/tee"
	"lcm/internal/transport"
)

// cloneStack is the clone-attack test deployment: like stack, but with a
// configurable beacon interval and commit path.
type cloneStack struct {
	t        *testing.T
	net      *transport.InmemNetwork
	server   *Server
	admin    *core.Admin
	platform *tee.Platform
}

func newCloneStack(t *testing.T, name string, clientIDs []uint32, beacon time.Duration, groupCommit bool) *cloneStack {
	return newTickedCloneStack(t, name, clientIDs, beacon, groupCommit, realTicker)
}

// newTickedCloneStack is newCloneStack with the tick loop's tickers built
// by newTicker (a fakeClock's, to drive beacons by hand).
func newTickedCloneStack(t *testing.T, name string, clientIDs []uint32, beacon time.Duration, groupCommit bool, newTicker func(time.Duration) (<-chan time.Time, func())) *cloneStack {
	t.Helper()
	attestation := tee.NewAttestationService()
	platform, err := tee.NewPlatform("plat-clone-" + name)
	if err != nil {
		t.Fatal(err)
	}
	attestation.Register(platform)
	server, err := newServer(Config{
		Platform: platform,
		Factory: core.NewTrustedFactory(core.TrustedConfig{
			ServiceName: "kvs",
			NewService:  kvs.Factory(),
			Attestation: attestation,
		}),
		Store:          stablestore.NewMemStore(),
		BatchSize:      1,
		GroupCommit:    groupCommit,
		BeaconInterval: beacon,
	}, newTicker)
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
	t.Cleanup(func() {
		listener.Close()
		server.Shutdown()
	})
	return &cloneStack{t: t, net: net, server: server, admin: admin, platform: platform}
}

func (s *cloneStack) session(id uint32) *client.Session {
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

// anyCloneHalt returns the first ErrCloneDetected halt among the server's
// instances (by index), or -1.
func anyCloneHalt(srv *Server) (int, error) {
	for i := 0; ; i++ {
		enc := srv.Enclave(i)
		if enc == nil {
			return -1, nil
		}
		if err := enc.HaltedErr(); err != nil && errors.Is(err, core.ErrCloneDetected) {
			return i, err
		}
	}
}

// The blind spot the beacon exists to close, demonstrated end to end with
// beacons OFF: a cloned enclave serving a disjoint client partition passes
// every per-client Alg. 2 check on both instances. The recorded history
// stays fork-linearizable throughout — first as ONE fork group (the
// partitions' observed sequence ranges do not yet overlap), then as two
// groups once the primary's partition resumes — and no client or enclave
// detects anything until a client actually crosses the partition.
func TestCloneAttackUndetectedWithDisjointClients(t *testing.T) {
	// Six group members with only three active keeps q = 0 on both sides
	// (neither partition can assemble a 4-of-6 majority), so the
	// demonstration isolates the per-client chain check — stability is a
	// separate, orthogonal signal that stalls under any partition.
	s := newCloneStack(t, "blindspot", []uint32{1, 2, 3, 4, 5, 6}, 0, false)
	log := consistency.NewLog()

	record := func(id uint32, c *client.Session, op []byte, res *core.Result) {
		log.Record(consistency.Event{
			Client: id, Seq: res.Seq, Stable: res.Stable,
			Op: op, Result: res.Value, Chain: c.State().HC,
		})
	}
	do := func(id uint32, c *client.Session, op []byte) {
		t.Helper()
		res, err := c.Do(op)
		if err != nil {
			t.Fatalf("client %d: %v", id, err)
		}
		record(id, c, op, res)
	}

	// Honest prefix: clients 1 and 2 write on the primary, then go idle.
	c1, c2 := s.session(1), s.session(2)
	for i := 0; i < 2; i++ {
		do(1, c1, kvs.Put(fmt.Sprintf("pre-%d", i), "primary"))
	}
	for i := 0; i < 2; i++ {
		do(2, c2, kvs.Put(fmt.Sprintf("pre2-%d", i), "primary"))
	}

	// Clone the shard. New connections land on the clone.
	cloneIdx, err := s.server.AttackClone(0)
	if err != nil {
		t.Fatalf("AttackClone: %v", err)
	}

	// Client 3 connects fresh and writes on the clone. Its context (a
	// fresh V entry in the copied state) verifies perfectly.
	c3 := s.session(3)
	for i := 0; i < 6; i++ {
		do(3, c3, kvs.Put(fmt.Sprintf("k-%d", i), "clone"))
	}

	// At this point the partitions' views cover DISJOINT sequence ranges:
	// the checker cannot even tell there are two histories.
	if got := len(log.Forks()); got != 1 {
		t.Fatalf("fork groups before primary resumes = %d, want 1", got)
	}
	if err := log.Check(kvs.Factory()); err != nil {
		t.Fatalf("cloned run rejected prematurely: %v", err)
	}
	if ev := log.GenShardCloneEvidence(0, 0); ev != nil {
		t.Fatalf("clone evidence before histories overlap: %v", ev)
	}

	// The primary partition resumes, its writes spanning the same sequence
	// numbers client 3 already holds on the clone: now both partitions
	// hold the same sequence numbers with diverged chains — two fork
	// groups — yet the history is still fork-linearizable and nobody has
	// detected anything.
	for i := 0; i < 3; i++ {
		do(1, c1, kvs.Put(fmt.Sprintf("post-%d", i), "primary"))
	}
	for i := 0; i < 3; i++ {
		do(2, c2, kvs.Put(fmt.Sprintf("post2-%d", i), "primary"))
	}
	if got := len(log.Forks()); got != 2 {
		t.Fatalf("fork groups after primary resumes = %d, want 2", got)
	}
	if err := log.Check(kvs.Factory()); err != nil {
		t.Fatalf("cloned run not fork-linearizable: %v", err)
	}

	// The checker's clone verdict: overlapping sequence ranges across the
	// two groups prove two concurrent writers.
	if ev := log.GenShardCloneEvidence(0, 0); ev == nil {
		t.Fatal("no clone evidence despite overlapping partition histories")
	}

	// ...and the live system still suspects nothing: no enclave halted, no
	// client poisoned. This is the accepted cloned run.
	for i := 0; s.server.Enclave(i) != nil; i++ {
		if err := s.server.Enclave(i).HaltedErr(); err != nil {
			t.Fatalf("instance %d halted without a cross-partition client: %v", i, err)
		}
	}
	for _, c := range []*client.Session{c1, c2, c3} {
		if err := c.Err(); err != nil {
			t.Fatalf("client %d poisoned without crossing partitions: %v", c.ID(), err)
		}
	}

	// Only a cross-clone join surfaces it: client 1 (primary context)
	// reconnects and is routed to the clone, whose V entry for client 1
	// predates the primary's post-clone writes → context mismatch → halt.
	conn, err := s.net.Dial("lcm-server")
	if err != nil {
		t.Fatal(err)
	}
	c1b := client.Resume(conn, c1.State(), s.admin.CommunicationKey(), client.Config{Timeout: 5 * time.Second})
	defer c1b.Close()
	if _, err := c1b.Do(kvs.Get("pre-0")); err == nil {
		t.Fatal("cross-clone operation succeeded — clone not detected on join")
	}
	if s.server.Enclave(cloneIdx).HaltedErr() == nil {
		t.Fatal("clone did not halt on the cross-partition context")
	}
}

// The fix: with beacons armed, the clone and the primary collide on the
// platform's monotonic counter within two beacon intervals of the clone
// going live — one of them halts with ErrCloneDetected, with NO client
// crossing the partition, and the surviving instance keeps serving.
func TestCloneBeaconDetection(t *testing.T) {
	const interval = 50 * time.Millisecond
	s := newCloneStack(t, "beacon", []uint32{1, 2, 9}, interval, false)

	c1 := s.session(1)
	if _, err := c1.Do(kvs.Put("k", "v")); err != nil {
		t.Fatal(err)
	}

	// Let the primary commit at least one beacon, so the clone's copied
	// chain is guaranteed behind the counter the moment it boots.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := core.QueryStatus(s.server.ECall)
		if err != nil {
			t.Fatalf("status: %v", err)
		}
		if st.BeaconSeq >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("primary never committed a beacon")
		}
		time.Sleep(interval / 5)
	}

	cloneIdx, err := s.server.AttackClone(0)
	if err != nil {
		t.Fatalf("AttackClone: %v", err)
	}
	injected := time.Now()

	// Both instances now beacon against one counter. Protocol bound: the
	// first beacon either instance commits after the copy diverges the
	// counter from the other's sealed chain, so detection needs at most
	// two intervals of beaconing; the wall-clock assertion adds scheduling
	// slack for loaded CI runners.
	var haltedIdx int
	var haltErr error
	deadline = time.Now().Add(5 * time.Second)
	for {
		haltedIdx, haltErr = anyCloneHalt(s.server)
		if haltErr != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no instance halted with ErrCloneDetected")
		}
		time.Sleep(interval / 10)
	}
	latency := time.Since(injected)
	if bound := 2*interval + 500*time.Millisecond; latency > bound {
		t.Fatalf("detection took %v, beyond the 2-interval bound (+slack) %v", latency, bound)
	}
	t.Logf("clone detected on instance %d after %v: %v", haltedIdx, latency, haltErr)

	// The survivor keeps serving. A fresh (never-written) client's context
	// is valid on either side; route it to whichever instance lives.
	survivor := 0
	if haltedIdx == 0 {
		survivor = cloneIdx
	}
	s.server.RouteNewConnsTo(survivor)
	c9 := s.session(9)
	if _, err := c9.Do(kvs.Put("after", "detection")); err != nil {
		t.Fatalf("survivor (instance %d) stopped serving: %v", survivor, err)
	}
}

// Beacons on an un-cloned deployment never fire: heavy traffic, both
// commit modes, and an honest enclave restart (which replays the beacon
// records from the sealed chain and re-bases on the counter's tolerance
// window) produce zero false positives — and the beacons demonstrably ran.
// The beacon ticks are driven by hand, one per round of traffic.
func TestBeaconNoFalsePositives(t *testing.T) {
	for _, tc := range []struct {
		name        string
		groupCommit bool
	}{
		{"inline", false},
		{"group-commit", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := newFakeClock()
			s := newTickedCloneStack(t, "honest-"+tc.name, []uint32{1, 2}, time.Hour, tc.groupCommit, clock.newTicker)
			c1, c2 := s.session(1), s.session(2)
			for i := 0; i < 40; i++ {
				clock.fire(t, time.Hour, 0)
				if _, err := c1.Do(kvs.Put(fmt.Sprintf("a%d", i), "v")); err != nil {
					t.Fatalf("client 1 op %d: %v", i, err)
				}
				if _, err := c2.Do(kvs.Put(fmt.Sprintf("b%d", i), "v")); err != nil {
					t.Fatalf("client 2 op %d: %v", i, err)
				}
				if i == 20 {
					// Honest restart mid-run: recovery folds beacon records
					// and must not trip the counter check.
					if err := s.server.Enclave(0).Restart(); err != nil {
						t.Fatalf("restart: %v", err)
					}
				}
			}
			for i := 0; i < 4; i++ { // a few more beacon rounds without traffic
				clock.fire(t, time.Hour, 0)
			}
			if err := s.server.Enclave(0).HaltedErr(); err != nil {
				t.Fatalf("false positive: %v", err)
			}
			st, err := core.QueryStatus(s.server.ECall)
			if err != nil {
				t.Fatal(err)
			}
			if st.BeaconSeq == 0 {
				t.Fatal("beacons never ran — the no-false-positive run proved nothing")
			}
		})
	}
}

// Attack arms compose: ClearRouteOverrides resets routing between attack
// phases (fork-then-clone, clone-then-restart) instead of leaking one
// phase's override into the next.
func TestAttackArmsCompose(t *testing.T) {
	s := newCloneStack(t, "compose", []uint32{1, 2, 3, 4}, 0, false)

	c1 := s.session(1)
	if _, err := c1.Do(kvs.Put("k", "v0")); err != nil {
		t.Fatal(err)
	}

	// Phase 1: fork. New connections land on the fork...
	forkIdx, err := s.server.AttackFork(0)
	if err != nil {
		t.Fatalf("AttackFork: %v", err)
	}
	if forkIdx == 0 {
		t.Fatalf("fork index = 0, want a new instance")
	}
	// ...until the override is cleared: client 2 must reach the primary —
	// its write has to be visible to client 1's (primary-pinned) session.
	s.server.ClearRouteOverrides()
	c2 := s.session(2)
	if _, err := c2.Do(kvs.Put("k", "primary-after-fork")); err != nil {
		t.Fatal(err)
	}
	res, err := c1.Do(kvs.Get("k"))
	if err != nil {
		t.Fatal(err)
	}
	if kv, _ := kvs.DecodeResult(res.Value); string(kv.Value) != "primary-after-fork" {
		t.Fatalf("client 2 landed on the fork after ClearRouteOverrides (read %q)", kv.Value)
	}

	// Phase 2: clone the (primary) shard; the clone serves its partition.
	cloneIdx, err := s.server.AttackClone(0)
	if err != nil {
		t.Fatalf("AttackClone: %v", err)
	}
	c3 := s.session(3)
	if _, err := c3.Do(kvs.Put("clone-k", "v")); err != nil {
		t.Fatalf("clone partition: %v", err)
	}
	if s.server.Enclave(cloneIdx) == nil {
		t.Fatal("clone instance not registered")
	}

	// Phase 3: clear again and restart the primary honestly — the next
	// phase starts from clean routing and a recovered primary.
	s.server.ClearRouteOverrides()
	if err := s.server.Enclave(0).Restart(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	c4 := s.session(4)
	if _, err := c4.Do(kvs.Put("k", "primary-after-restart")); err != nil {
		t.Fatalf("primary after clone-then-restart: %v", err)
	}
	res, err = c1.Do(kvs.Get("k"))
	if err != nil {
		t.Fatal(err)
	}
	if kv, _ := kvs.DecodeResult(res.Value); string(kv.Value) != "primary-after-restart" {
		t.Fatalf("client 4 did not land on the recovered primary (read %q)", kv.Value)
	}
}

// The client-side freshness horizon: replies from a beaconed deployment
// stay fresh, while a "gagged" instance — one that never advances its
// beacon ordinal, the clone's only way to dodge the counter collision —
// poisons the client with ErrBeaconStale once the horizon passes.
func TestBeaconFreshnessHorizon(t *testing.T) {
	t.Run("fresh", func(t *testing.T) {
		clock := newFakeClock()
		s := newTickedCloneStack(t, "fresh", []uint32{1}, time.Hour, false, clock.newTicker)
		conn, err := s.net.Dial("lcm-server")
		if err != nil {
			t.Fatal(err)
		}
		c := client.New(conn, 1, s.admin.CommunicationKey(), client.Config{
			Timeout:          5 * time.Second,
			FreshnessHorizon: 5 * time.Second,
		})
		defer c.Close()
		sawBeacon := false
		for i := 0; i < 50; i++ {
			clock.fire(t, time.Hour, 0)
			res, err := c.Do(kvs.Put("k", "v"))
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if res.BeaconSeq > 0 {
				sawBeacon = true
			}
		}
		if !sawBeacon {
			t.Fatal("replies never carried a beacon ordinal")
		}
	})
	t.Run("gagged", func(t *testing.T) {
		// Beacons off stands in for the gagged clone: the beacon ordinal in
		// replies never advances.
		s := newCloneStack(t, "gagged", []uint32{1}, 0, false)
		conn, err := s.net.Dial("lcm-server")
		if err != nil {
			t.Fatal(err)
		}
		c := client.New(conn, 1, s.admin.CommunicationKey(), client.Config{
			Timeout:          5 * time.Second,
			FreshnessHorizon: 30 * time.Millisecond,
		})
		defer c.Close()
		if _, err := c.Do(kvs.Put("k", "v")); err != nil {
			t.Fatal(err) // first reply baselines the horizon clock
		}
		time.Sleep(60 * time.Millisecond)
		_, err = c.Do(kvs.Put("k", "v2"))
		if err == nil {
			t.Fatal("stale beacon ordinal accepted past the freshness horizon")
		}
		if !errors.Is(err, core.ErrBeaconStale) || !errors.Is(err, core.ErrViolationDetected) {
			t.Fatalf("err = %v, want ErrBeaconStale wrapped in ErrViolationDetected", err)
		}
		if c.Err() == nil {
			t.Fatal("client not poisoned after freshness violation")
		}
	})
}

// Seeded fuzz over the clone-attack space: random clone-spawn timing ×
// client partition × beacon interval × commit path, with honest restarts
// thrown in. Un-cloned runs must never halt (no false positives); cloned
// runs must detect within the polling deadline. Runs under -race in CI
// (-count=3) and nightly (-count=10).
func TestCloneDetectFuzz(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			interval := time.Duration(4+rng.Intn(13)) * time.Millisecond
			cloned := seed%2 == 0
			groupCommit := rng.Intn(2) == 0
			ids := []uint32{1, 2, 3, 4, 5, 6}
			s := newCloneStack(t, fmt.Sprintf("fuzz-%d", seed), ids, interval, groupCommit)

			// Primary partition: a random split of the first four clients.
			nPrimary := 1 + rng.Intn(3)
			primary := make([]*client.Session, nPrimary)
			for i := range primary {
				primary[i] = s.session(uint32(i + 1))
			}
			preOps := 1 + rng.Intn(8)
			for i := 0; i < preOps; i++ {
				c := primary[rng.Intn(nPrimary)]
				if _, err := c.Do(kvs.Put(fmt.Sprintf("pre%d", i), "v")); err != nil {
					t.Fatalf("pre-op %d: %v", i, err)
				}
			}
			if rng.Intn(2) == 0 {
				if err := s.server.Enclave(0).Restart(); err != nil {
					t.Fatalf("honest restart: %v", err)
				}
			}

			if !cloned {
				// Un-cloned control run: more traffic, a pause spanning many
				// beacon rounds, zero halts.
				for i := 0; i < 10; i++ {
					c := primary[rng.Intn(nPrimary)]
					if _, err := c.Do(kvs.Put(fmt.Sprintf("post%d", i), "v")); err != nil {
						t.Fatalf("post-op %d: %v", i, err)
					}
				}
				time.Sleep(6 * interval)
				for i := 0; s.server.Enclave(i) != nil; i++ {
					if err := s.server.Enclave(i).HaltedErr(); err != nil {
						t.Fatalf("false positive on un-cloned run: %v", err)
					}
				}
				return
			}

			// Random clone-spawn delay relative to the beacon cadence.
			time.Sleep(time.Duration(rng.Intn(3)) * interval / 2)
			if _, err := s.server.AttackClone(0); err != nil {
				t.Fatalf("AttackClone: %v", err)
			}
			injected := time.Now()

			// Clone partition: fresh clients (5, 6) write on the clone.
			// Either side's writes may start failing the moment its
			// instance loses the counter race — that IS the detection.
			for _, id := range []uint32{5, 6}[:1+rng.Intn(2)] {
				c := s.session(id)
				for i := 0; i < 1+rng.Intn(4); i++ {
					if _, err := c.Do(kvs.Put(fmt.Sprintf("c%d-%d", id, i), "v")); err != nil {
						break
					}
				}
			}

			deadline := time.Now().Add(5 * time.Second)
			for {
				if _, err := anyCloneHalt(s.server); err != nil {
					t.Logf("interval=%v groupCommit=%v: detected after %v",
						interval, groupCommit, time.Since(injected))
					return
				}
				if time.Now().After(deadline) {
					t.Fatalf("clone not detected (interval=%v groupCommit=%v)", interval, groupCommit)
				}
				time.Sleep(interval / 4)
			}
		})
	}
}
