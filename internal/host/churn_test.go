package host

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/kvs"
	"lcm/internal/transport"
)

// TestChurnFuzz drives a seeded schedule of joins, leaves, staged
// evictions and epoch seals underneath live client traffic. The
// assertions are the protocol's safety net: no honest
// client ever reports a violation (no false positives), the published
// stable sequence number never regresses across a membership change, and
// evicted ids are cut off by the epoch seal's key rotation while every
// survivor re-keys and continues with its old context.
func TestChurnFuzz(t *testing.T) {
	const (
		baseN  = 6
		rounds = 8
	)
	ids := make([]uint32, baseN)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	s := newStack(t, ids, 2)
	rng := rand.New(rand.NewSource(0xC0FFEE))

	cfg := client.Config{Timeout: 5 * time.Second, Retries: 1}
	dial := func() transport.Conn {
		t.Helper()
		conn, err := s.net.Dial("lcm-server")
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	sessions := make(map[uint32]*client.Session)
	for _, id := range ids {
		sessions[id] = client.New(dial(), id, s.admin.CommunicationKey(), cfg)
	}
	t.Cleanup(func() {
		for _, sess := range sessions {
			sess.Close()
		}
	})
	nextID := uint32(baseN + 1)
	var prevStable uint64

	for round := 0; round < rounds; round++ {
		// Traffic: every current member runs a couple of operations
		// concurrently, plus a heartbeat.
		var wg sync.WaitGroup
		errs := make(chan error, len(sessions)*3)
		for id, sess := range sessions {
			wg.Add(1)
			go func(id uint32, sess *client.Session) {
				defer wg.Done()
				for j := 0; j < 2; j++ {
					if _, err := sess.Do(kvs.Put(fmt.Sprintf("k%d", id), fmt.Sprintf("r%d.%d", round, j))); err != nil {
						errs <- fmt.Errorf("client %d round %d: %w", id, round, err)
						return
					}
				}
				if err := sess.Heartbeat(); err != nil {
					errs <- fmt.Errorf("client %d heartbeat: %w", id, err)
				}
			}(id, sess)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatalf("false positive under churn: %v", err)
		}

		// Churn: a join through the new client's own session...
		if rng.Intn(2) == 0 || len(sessions) < 3 {
			id := nextID
			nextID++
			sess := client.New(dial(), id, s.admin.CommunicationKey(), cfg)
			ack, err := sess.Join()
			if err != nil {
				t.Fatalf("join %d: %v", id, err)
			}
			if !ack.OK {
				t.Fatalf("join %d refused", id)
			}
			sessions[id] = sess
		}
		// ...a voluntary leave...
		if rng.Intn(3) == 0 && len(sessions) > 3 {
			id := randomMember(rng, sessions)
			if _, err := sessions[id].Leave(); err != nil {
				t.Fatalf("leave %d: %v", id, err)
			}
			sessions[id].Close()
			delete(sessions, id)
		}
		// ...and an admin-staged eviction. The evictee quiesces (its
		// session closes) before the seal cuts it off.
		if rng.Intn(3) == 0 && len(sessions) > 3 {
			id := randomMember(rng, sessions)
			if err := s.admin.Evict(s.server.ECall, id); err != nil {
				t.Fatalf("evict %d: %v", id, err)
			}
			sessions[id].Close()
			delete(sessions, id)
		}

		// Seal the epoch; Members adopts the (possibly rotated) kC, and
		// every survivor re-keys while keeping its protocol context.
		if err := s.admin.SealEpoch(s.server.ECall); err != nil {
			t.Fatalf("seal epoch round %d: %v", round, err)
		}
		info, err := s.admin.Members(s.server.ECall)
		if err != nil {
			t.Fatalf("members round %d: %v", round, err)
		}
		if got, want := len(info.Members), len(sessions); got != want {
			t.Fatalf("round %d: enclave sees %d members, harness tracks %d", round, got, want)
		}
		for id := range sessions {
			state := sessions[id].State()
			sessions[id].Close()
			sessions[id] = client.Resume(dial(), state, s.admin.CommunicationKey(), cfg)
		}

		// The published stable sequence number survives the membership
		// change monotonically.
		st, err := core.QueryStatus(s.server.ECall)
		if err != nil {
			t.Fatalf("status round %d: %v", round, err)
		}
		if st.Stable < prevStable {
			t.Fatalf("round %d: stability regressed %d -> %d across churn", round, prevStable, st.Stable)
		}
		prevStable = st.Stable
		if st.GroupEpoch == 0 {
			t.Fatalf("round %d: epoch seal did not advance the membership epoch", round)
		}
	}

	// Post-fuzz sanity: traffic still flows for every survivor.
	for id, sess := range sessions {
		if _, err := sess.Do(kvs.Get(fmt.Sprintf("k%d", id))); err != nil {
			t.Fatalf("post-fuzz op for %d: %v", id, err)
		}
	}
}

func randomMember(rng *rand.Rand, sessions map[uint32]*client.Session) uint32 {
	ids := make([]uint32, 0, len(sessions))
	for id := range sessions {
		ids = append(ids, id)
	}
	// map iteration order is random; sort for a deterministic pick.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	return ids[rng.Intn(len(ids))]
}

// TestSwarmRegistered100k is the scale smoke for a large registered
// group: 10^5 registered clients with a 64-session active set. Bootstrap,
// traffic and an epoch seal must all work, and stability follows Def. 2
// (Sec. 4.5): the 64 active clients are a minority of V, so nothing they
// do can become stable — q stays 0 until a majority of all registered
// clients acknowledges (or heartbeat eviction shrinks V).
func TestSwarmRegistered100k(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-member bootstrap is not a -short test")
	}
	const (
		registered = 100_000
		active     = 64
	)
	ids := make([]uint32, registered)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	s := newStack(t, ids, 8)

	sessions := make([]*client.Session, active)
	for i := range sessions {
		conn, err := s.net.Dial("lcm-server")
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = client.New(conn, uint32(i+1), s.admin.CommunicationKey(),
			client.Config{Timeout: 30 * time.Second, Retries: 1})
	}
	t.Cleanup(func() {
		for _, sess := range sessions {
			sess.Close()
		}
	})

	// Three rounds of traffic: from the second on, every active client
	// acknowledges an earlier reply.
	for round := 0; round < 3; round++ {
		var wg sync.WaitGroup
		errs := make(chan error, active)
		for i, sess := range sessions {
			wg.Add(1)
			go func(i int, sess *client.Session) {
				defer wg.Done()
				if _, err := sess.Do(kvs.Put(fmt.Sprintf("a%d", i), "x")); err != nil {
					errs <- fmt.Errorf("active %d round %d: %w", i, round, err)
				}
			}(i, sess)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}
	res, err := sessions[0].Do(kvs.Get("a0"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stable != 0 || sessions[0].LastStable() != 0 {
		t.Fatalf("a minority of %d active clients out of %d made q = %d stable", active, registered, res.Stable)
	}

	st, err := core.QueryStatus(s.server.ECall)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumClients != registered || st.Stable != 0 {
		t.Fatalf("registered = %d with q = %d, want %d with q = 0", st.NumClients, st.Stable, registered)
	}
	if st.ActiveClients != active {
		t.Fatalf("active clients = %d, want %d", st.ActiveClients, active)
	}

	// One epoch seal over the full group: the epoch advances.
	if err := s.admin.SealEpoch(s.server.ECall); err != nil {
		t.Fatalf("seal epoch: %v", err)
	}
	st, err = core.QueryStatus(s.server.ECall)
	if err != nil {
		t.Fatal(err)
	}
	if st.GroupEpoch == 0 {
		t.Fatal("epoch did not advance")
	}
}

// TestForkedMinoritiesNeverStable is Def. 2 (Sec. 4.5) end to end on a
// large registered group: a forking host serves each twin a disjoint
// minority of V, and neither twin may ever publish a stable sequence
// number past the fork point. A stability rule that counts only the
// clients a twin actually serves lets the host pick both witness sets,
// so both branches would become "stable" — exactly what the majority of
// all of V rules out.
func TestForkedMinoritiesNeverStable(t *testing.T) {
	const (
		registered = 200
		partition  = 10
		prefixOps  = 1040 // drives t past 1 000 before the fork
	)
	ids := make([]uint32, registered)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	s := newStack(t, ids, 8)

	// The honest prefix: 2·partition clients, all on the primary.
	sessions := make([]*client.Session, 2*partition)
	for i := range sessions {
		sessions[i] = s.session(uint32(i + 1))
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(sessions))
	for i, sess := range sessions {
		wg.Add(1)
		go func(i int, sess *client.Session) {
			defer wg.Done()
			for j := 0; j < prefixOps/len(sessions); j++ {
				if _, err := sess.Do(kvs.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", j))); err != nil {
					errs <- fmt.Errorf("prefix client %d: %w", i+1, err)
					return
				}
			}
		}(i, sess)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st, err := core.QueryStatus(s.server.ECall)
	if err != nil {
		t.Fatal(err)
	}
	forkT := st.Seq
	if forkT < 1000 {
		t.Fatalf("prefix reached t = %d, want ≥ 1000", forkT)
	}

	// Fork: the first partition keeps its connections on the primary; the
	// second resumes on new connections, which the host routes to the twin.
	forkIdx, err := s.server.AttackFork(0)
	if err != nil {
		t.Fatalf("AttackFork: %v", err)
	}
	for i := partition; i < len(sessions); i++ {
		state := sessions[i].State()
		sessions[i].Close()
		conn, err := s.net.Dial("lcm-server")
		if err != nil {
			t.Fatal(err)
		}
		sess := client.Resume(conn, state, s.admin.CommunicationKey(),
			client.Config{Timeout: 5 * time.Second, Retries: 1})
		t.Cleanup(func() { sess.Close() })
		sessions[i] = sess
	}
	twins := map[string]core.CallFunc{
		"primary": s.server.ECall,
		"fork": func(p []byte) ([]byte, error) {
			return s.server.barrierECall(forkIdx, p)
		},
	}

	// Each twin serves its partition across three epoch seals; no reply
	// on either side may carry q past the fork point.
	var maxQ [2]uint64
	serve := func(round int) {
		t.Helper()
		for i, sess := range sessions {
			for j := 0; j < 3; j++ {
				res, err := sess.Do(kvs.Put(fmt.Sprintf("k%d", i), fmt.Sprintf("r%d.%d", round, j)))
				if err != nil {
					t.Fatalf("round %d client %d: %v", round, i+1, err)
				}
				side := i / partition
				maxQ[side] = max(maxQ[side], res.Stable)
			}
		}
	}
	for round := 0; round < 3; round++ {
		serve(round)
		for name, call := range twins {
			if err := s.admin.SealEpoch(call); err != nil {
				t.Fatalf("seal epoch on %s twin: %v", name, err)
			}
		}
	}
	serve(3)
	for name, call := range twins {
		st, err := core.QueryStatus(call)
		if err != nil {
			t.Fatalf("%s twin status: %v", name, err)
		}
		if st.GroupEpoch < 3 {
			t.Fatalf("%s twin at epoch %d, want three seals", name, st.GroupEpoch)
		}
	}
	if maxQ[0] > forkT || maxQ[1] > forkT {
		t.Fatalf("fork at t = %d: primary published q = %d, fork published q = %d; "+
			"a minority of V made a forked branch stable", forkT, maxQ[0], maxQ[1])
	}
}
