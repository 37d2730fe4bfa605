package benchrun

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lcm/internal/client"
	"lcm/internal/core"
	"lcm/internal/kvs"
)

// reshardValueSize fixes the object size of the reshard ablation at
// 1000 B: every operation then holds its single-threaded enclave for
// ~275 µs of charged byte-processing (Fig. 4's regime), which dominates
// the round trip, so the shard count — not the client side — sets the
// throughput before and after the reshard.
const reshardValueSize = 1000

// RunReshardAblation measures what a live reshard costs a serving
// deployment: clients drive single-key writes in a closed loop while the
// host grows the deployment from oldShards to newShards mid-run. Three
// numbers come out:
//
//   - pre-reshard throughput (the old generation's steady state),
//   - the pause — both the coordinator's freeze window (challenge →
//     swap) and the client-observed stall (last old-generation success →
//     first new-generation success, which adds the refresh round trip),
//   - post-reshard throughput, whose ratio to the pre number is the
//     recovery: with the enclave as the bottleneck (reshardValueSize
//     objects) doubling the shard count should recover to *more* than
//     1× once clients re-spread.
//
// Every acknowledged write is re-read after the run through the new
// generation; a lost write fails the ablation.
func RunReshardAblation(cfg RunConfig, oldShards, newShards, clients int) ([]AblationPoint, error) {
	cfg = cfg.fill()
	if oldShards <= 0 {
		oldShards = 2
	}
	if newShards <= 0 {
		newShards = oldShards * 2
	}
	if clients <= 0 {
		clients = 8
	}
	fmt.Fprintf(cfg.Out, "# Ablation — live reshard %d→%d shards under %d clients (async writes, batch 1, %d B objects)\n",
		oldShards, newShards, clients, reshardValueSize)

	dep, err := Deploy(SysLCM, Options{
		Model:   cfg.model(),
		Dir:     cfg.Dir,
		Clients: clients,
		Shards:  oldShards,
	})
	if err != nil {
		return nil, err
	}
	defer dep.Close()

	sessions := make([]*client.ShardedSession, clients)
	for i := range sessions {
		if sessions[i], err = dep.NewShardedSession(kvs.New()); err != nil {
			return nil, err
		}
	}

	// Phases: 0 = pre-measure, 1 = reshard window (not measured),
	// 2 = post-measure, 3 = stop.
	var (
		phase      atomic.Int32
		phaseOps   [3]atomic.Int64
		lastOldNS  atomic.Int64 // latest pre-swap success (unix nanos)
		firstNewNS atomic.Int64 // earliest new-generation success
		wg         sync.WaitGroup
		errMu      sync.Mutex
		firstErr   error
	)
	value := string(make([]byte, reshardValueSize))
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		phase.Store(3)
	}

	refresh := func(s *client.ShardedSession) (*client.ShardedSession, []client.ReshardPending, error) {
		deadline := time.Now().Add(30 * time.Second)
		for {
			next, pending, err := s.Refresh(dep.Dial)
			if err == nil {
				return next, pending, nil
			}
			if errors.Is(err, core.ErrViolationDetected) || time.Now().After(deadline) {
				return nil, nil, err
			}
			time.Sleep(time.Millisecond)
		}
	}

	finals := make([]*client.ShardedSession, clients)
	for i := range sessions {
		wg.Add(1)
		go func(i int, s *client.ShardedSession) {
			defer wg.Done()
			defer func() { finals[i] = s }()
			key := fmt.Sprintf("reshard-client-%d", i)
			for {
				p := phase.Load()
				if p == 3 {
					return
				}
				_, err := s.Do(kvs.Put(key, value))
				if err != nil {
					if !client.NeedsReshardRefresh(err) {
						fail(fmt.Errorf("client %d: %w", i, err))
						return
					}
					// Pending resolution is irrelevant here: executed or
					// not, the key is rewritten on the next loop turn.
					next, _, rerr := refresh(s)
					if rerr != nil {
						fail(fmt.Errorf("client %d refresh: %w", i, rerr))
						return
					}
					s = next
					continue
				}
				now := time.Now().UnixNano()
				if s.Gen() == 0 {
					lastOldNS.Store(now)
				} else if firstNewNS.Load() == 0 {
					firstNewNS.CompareAndSwap(0, now)
				}
				if p >= 0 && p <= 2 {
					phaseOps[p].Add(1)
				}
			}
		}(i, sessions[i])
	}

	time.Sleep(cfg.Duration)
	phase.Store(1)
	stats, err := dep.Reshard(newShards)
	if err != nil {
		fail(fmt.Errorf("reshard: %w", err))
		wg.Wait()
		return nil, firstErr
	}
	// Wait until the clients have re-spread onto the new generation, then
	// measure the recovered steady state.
	recoverDeadline := time.Now().Add(30 * time.Second)
	for firstNewNS.Load() == 0 && phase.Load() != 3 {
		if time.Now().After(recoverDeadline) {
			fail(errors.New("clients never recovered after the reshard"))
			break
		}
		time.Sleep(time.Millisecond)
	}
	phase.Store(2)
	time.Sleep(cfg.Duration)
	phase.Store(3)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	pre := float64(phaseOps[0].Load()) / cfg.Duration.Seconds()
	post := float64(phaseOps[2].Load()) / cfg.Duration.Seconds()
	clientStall := time.Duration(firstNewNS.Load() - lastOldNS.Load())

	points := []AblationPoint{
		{Name: fmt.Sprintf("lcm-reshard%dto%d-pre", oldShards, newShards), X: clients, Throughput: pre},
		{Name: fmt.Sprintf("lcm-reshard%dto%d-post", oldShards, newShards), X: clients, Throughput: post},
		{Name: fmt.Sprintf("lcm-reshard%dto%d-pause", oldShards, newShards), X: clients, MeanLat: stats.Pause},
	}
	fmt.Fprintf(cfg.Out, "%-22s clients=%-3d thr=%9.1f ops/s\n", points[0].Name, clients, pre)
	fmt.Fprintf(cfg.Out, "%-22s clients=%-3d thr=%9.1f ops/s\n", points[1].Name, clients, post)
	fmt.Fprintf(cfg.Out, "%-22s coordinator pause=%v client stall=%v\n",
		points[2].Name, stats.Pause.Round(time.Microsecond), clientStall.Round(time.Microsecond))
	if pre > 0 {
		fmt.Fprintf(cfg.Out, "throughput recovery post/pre = %.2fx (shards %d→%d)\n", post/pre, oldShards, newShards)
	}

	// Zero acknowledged-write loss, end to end: every client's key reads
	// back through the new generation (old-generation communication keys
	// are dead, so the verification rides a refreshed session).
	var verify *client.ShardedSession
	for _, s := range finals {
		if s != nil && s.Gen() > 0 {
			verify = s
			break
		}
	}
	if verify == nil {
		return nil, errors.New("no client adopted the new generation")
	}
	if got, want := verify.Shards(), newShards; got != want {
		return nil, fmt.Errorf("post-reshard session spans %d shards, want %d", got, want)
	}
	for i := range sessions {
		res, err := verify.Do(kvs.Get(fmt.Sprintf("reshard-client-%d", i)))
		if err != nil {
			return nil, fmt.Errorf("re-read client %d key: %w", i, err)
		}
		kv, err := kvs.DecodeResult(res.Value)
		if err != nil {
			return nil, err
		}
		if !kv.Found {
			return nil, fmt.Errorf("client %d's acknowledged writes lost in the reshard", i)
		}
	}
	return points, nil
}
