package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"lcm/internal/consistency"
	"lcm/internal/core"
	"lcm/internal/kvs"
)

// timing fixes how long each phase of a run lasts.
type timing struct {
	warm          time.Duration // discarded
	window        time.Duration // measured, split into subWindows equal parts
	setups        int           // fewest deployments per timed run; setup_s is their median
	setupBudget   time.Duration // keep setting up, up to maxSetups, while this lasts
	restarts      int           // fewest measured restarts after the window (one more is discarded)
	restartBudget time.Duration // keep restarting, up to maxRestarts, while this lasts
	settle        bool          // align the compaction phase before heap and restarts
	probeIters    int           // scale of the fixed-count probes in a traced run
}

const (
	subWindows    = 4
	settleRecords = 128 // delta records on the chain when heap and restarts are measured
	maxRestarts   = 100
	maxSetups     = 9

	// consistencyEvents is how far past the load, in sequence numbers per
	// shard, a traced run's sessions keep observations for consistency.Log.
	consistencyEvents = 12_000
	quickRecords      = 250 // -quick caps the keyspace here (loading is most of its run time)
)

// timingFor derives every phase from the one length the caller gives
// (BENCHMARK.json's run_seconds). A traced run is two shorter phases: an
// untraced reference window for the overhead figure and the client tail
// percentiles, then the traced window.
func timingFor(seconds float64, quick bool) (timed, ref, traced timing) {
	if quick {
		w := 300 * time.Millisecond
		timed = timing{warm: 100 * time.Millisecond, window: w, setups: 1, restarts: 2, probeIters: 50}
		return timed, timed, timed
	}
	s := time.Duration(seconds * float64(time.Second))
	timed = timing{warm: 2 * time.Second, window: s, setups: 3, setupBudget: 1500 * time.Millisecond,
		restarts: 10, restartBudget: time.Second, settle: true}
	ref = timing{warm: time.Second, window: s * 4 / 10}
	traced = timing{warm: time.Second, window: s / 2, restarts: 4, settle: true, probeIters: 2000}
	return timed, ref, traced
}

// expectOps bounds how many operations one client completes in a phase,
// to size its record buffer: 40 k ops/s per client is twice what the
// fastest workload reaches on the reference sandbox.
func (t timing) expectOps() int {
	return int((t.warm+t.window).Seconds()*40_000) + 1024
}

// windowSpan is one measured window: its bounds and the counters sampled
// at both ends, so that load and warm-up work is excluded by subtraction.
type windowSpan struct {
	start, end  int64 // ns since the deployment's base
	first, last counters

	// cycles are the counters as they stood each time shard 0 re-sealed its
	// snapshot inside the window.
	cycles []counters
}

// wholeCycles returns the counter deltas between the window's first and
// last compaction when it saw at least two whole compaction cycles, and
// over the whole window otherwise. A snapshot rewrite is the largest
// write there is (21 MB against 4 MB of log per cycle on
// bigstate-restart), so whether a window happens to hold 10 or 11 of them
// moves bytes per operation by several per cent; whole cycles do not.
func (w windowSpan) wholeCycles() counters {
	if n := len(w.cycles); n >= 3 {
		return w.cycles[n-1].delta(w.cycles[0])
	}
	return w.last.delta(w.first)
}

// sampleCounts is the only sampling a timed run does: bytes handed to the
// store and operations completed, read from atomics.
func (d *deployment) sampleCounts() counters {
	var ops int64
	for _, s := range d.sessions {
		ops += s.done.Load()
	}
	return counters{"store_bytes": float64(d.store.bytes.Load()), "ops": float64(ops)}
}

// sampleStatus adds the host's and the trusted contexts' own counters; it
// costs one barrier ecall per shard, so only traced runs use it.
func (d *deployment) sampleStatus() counters {
	c := d.sampleCounts()
	groups, records, maxGroup := d.server.GroupCommitStats()
	c["groups"], c["group_records"], c["max_group"] = float64(groups), float64(records), float64(maxGroup)
	if ds, err := d.server.DeploymentStatus(); err == nil {
		for _, sh := range ds.Shards {
			c["compactions"] += float64(sh.Status.Compactions)
			c["heals"] += float64(sh.Heals)
			c["live_peers"] += float64(sh.ReplicasLive)
		}
	}
	return c
}

func (d *deployment) sleepUntil(at int64) {
	if wait := at - d.since(); wait > 0 {
		time.Sleep(time.Duration(wait))
	}
}

// drive runs the closed loop: numClients goroutines issue one operation
// at a time from warm-up start to window end, while this goroutine
// samples the counters at the window's two ends.
func (d *deployment) drive(seed int64, t timing, sample func() counters) windowSpan {
	var w windowSpan
	w.start = d.since() + int64(t.warm)
	w.end = w.start + int64(t.window)
	var mu sync.Mutex // the committer marks cycles, this goroutine reads them
	mark := func() {
		if now := d.since(); now >= w.start && now < w.end {
			mu.Lock()
			w.cycles = append(w.cycles, d.sampleCounts())
			mu.Unlock()
		}
	}
	d.store.onReseal.Store(&mark)
	defer d.store.onReseal.Store(nil)
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.clientLoop(d.sessions[i], clientRNG(seed, i), w.end)
		}()
	}
	d.sleepUntil(w.start)
	w.first = sample()
	d.sleepUntil(w.end)
	w.last = sample()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return w
}

// clientLoop is one client: pick the next operation from the workload's
// mix with the client's own generator, wait for its verified reply,
// record it. It stops at the first failed operation — a poisoned session
// fails every later one instantly.
func (d *deployment) clientLoop(s *session, rng *rand.Rand, stopAt int64) {
	w := d.w
	for d.since() < stopAt {
		var rec opRecord
		switch u := rng.Float64(); {
		case u < w.scanFrac:
			rec = d.scan(s, scanPrefixLo+rng.Intn(scanPrefixHi-scanPrefixLo))
		case u < w.scanFrac+w.getFrac:
			rec = d.get(s, d.gen.Chooser.Next(rng), w.snapReads)
		default:
			rec = d.put(s, d.gen.Chooser.Next(rng), d.gen.Value(rng))
		}
		if rec.failed {
			return
		}
	}
}

// readBack reads every key once through Do, the keys dealt round-robin to
// the sessions. The records join the history, so the replay below checks
// each value against the model: no acknowledged write is lost.
func (d *deployment) readBack() {
	var wg sync.WaitGroup
	for i, s := range d.sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := i; idx < len(d.keys); idx += len(d.sessions) {
				if d.get(s, idx, false).failed {
					return
				}
			}
		}()
	}
	wg.Wait()
}

// verdict is the oracle's count for one run.
type verdict struct {
	attempted int
	failed    int      // errored + oracle-rejected operations
	problems  []string // the first few, for the report
}

func (v *verdict) reject(format string, args ...any) {
	v.failed++
	if len(v.problems) < 8 {
		v.problems = append(v.problems, fmt.Sprintf(format, args...))
	}
}

// checkHistory is the correctness oracle. It replays every recorded
// operation of every session, shard by shard in sequence order, through a
// model map and requires: unique gap-free sequence numbers from 1; every
// Do-get equal to the latest put below its sequence number; every scan
// equal to the model's prefix scan on each shard at that shard's sequence
// number; every DoRead's snapshot sequence number at or above the
// reader's own last write, and its value equal to the latest put at or
// below that number — or to a later put that was already issued when the
// read completed: HandleRead copies the snapshot's number before
// SnapshotRead runs, so the number it reports is a lower bound of the
// snapshot it read. It returns the model after the last operation.
func (d *deployment) checkHistory() (model []uint64, v verdict) {
	type event struct {
		seq  uint64
		rec  *opRecord
		scan *scanObs
	}
	type version struct {
		seq, tag uint64
		issued   int64 // when the writer sent the put
	}
	events := make([][]event, d.w.shards)
	type snapshotRead struct {
		rec      *opRecord
		ownWrite uint64 // the reader's last put on that shard before the read
	}
	var reads []snapshotRead

	for _, s := range d.sessions {
		var lastPut, lastSeq, lastStable [maxShards]uint64
		for i := range s.recs {
			rec := &s.recs[i]
			v.attempted++
			if rec.failed {
				v.reject("client %d op %d (kind %d key %d) returned an error", s.id, i, rec.kind, rec.key)
				continue
			}
			switch rec.kind {
			case opRead:
				reads = append(reads, snapshotRead{rec, lastPut[rec.shard]})
				continue
			case opScan:
				obs := &s.scans[rec.tag]
				for shard := 0; shard < d.w.shards; shard++ {
					events[shard] = append(events[shard], event{obs.seqs[shard], rec, obs})
				}
				continue
			case opPut:
				lastPut[rec.shard] = rec.seq
			}
			if rec.seq <= lastSeq[rec.shard] || rec.stable < lastStable[rec.shard] || rec.stable > rec.seq {
				v.reject("client %d op %d: seq %d stable %d after seq %d stable %d",
					s.id, i, rec.seq, rec.stable, lastSeq[rec.shard], lastStable[rec.shard])
			}
			lastSeq[rec.shard], lastStable[rec.shard] = rec.seq, rec.stable
			events[rec.shard] = append(events[rec.shard], event{rec.seq, rec, nil})
		}
	}

	model = make([]uint64, len(d.keys))
	var history [][]version // per key, for snapshot reads
	if d.w.snapReads {
		history = make([][]version, len(d.keys))
	}
	for shard, evs := range events {
		sort.Slice(evs, func(i, j int) bool { return evs[i].seq < evs[j].seq })
		for i, ev := range evs {
			if ev.seq != uint64(i+1) {
				v.reject("shard %d: sequence number %d at position %d (gap or duplicate)", shard, ev.seq, i+1)
				break // the replay below is only sound on a gap-free history
			}
		}
		for _, ev := range evs {
			rec := ev.rec
			switch rec.kind {
			case opPut:
				model[rec.key] = rec.tag
				if history != nil {
					history[rec.key] = append(history[rec.key], version{ev.seq, rec.tag, rec.end - int64(rec.lat)})
				}
			case opGet:
				if rec.tag != model[rec.key] {
					v.reject("shard %d seq %d: get key %d saw %x, model has %x", shard, ev.seq, rec.key, rec.tag, model[rec.key])
				}
			case opScan:
				if !d.scanMatches(ev.scan, int(rec.key), shard, model) {
					v.reject("shard %d seq %d: scan user%d differs from the model's prefix scan", shard, ev.seq, rec.key)
				}
			}
		}
	}
	for _, r := range reads {
		var want uint64
		vs := history[r.rec.key]
		next := sort.Search(len(vs), func(i int) bool { return vs[i].seq > r.rec.seq })
		if next > 0 {
			want = vs[next-1].tag
		}
		matches := r.rec.tag == want
		for ; !matches && next < len(vs) && vs[next].issued < r.rec.end; next++ {
			matches = r.rec.tag == vs[next].tag
		}
		if !matches || r.rec.seq < r.ownWrite {
			v.reject("snapshot read key %d at seq %d saw %x, want %x (reader's last write at %d)",
				r.rec.key, r.rec.seq, r.rec.tag, want, r.ownWrite)
		}
	}
	return model, v
}

// scanMatches checks one shard's share of a scan: every key with prefix
// "userNN" that lives on the shard must appear in the merged result with
// the model's value, and the result holds nothing but the prefix's keys.
func (d *deployment) scanMatches(obs *scanObs, nn, shard int, model []uint64) bool {
	want := 0
	for _, idx := range scanCandidates(nn) {
		if idx >= len(d.keys) {
			continue
		}
		want++
		if int(d.keyShard[idx]) != shard {
			continue
		}
		found := false
		for i := 0; i < obs.n; i++ {
			if int(obs.keys[i]) == idx {
				found = obs.tags[i] == model[idx]
			}
		}
		if !found {
			return false
		}
	}
	return obs.n == want
}

// scanCandidates lists the indices of the keys that start with "userNN"
// in a keyspace of at most 1 000 keys (the scan workload's): NN itself and
// NN0 … NN9.
func scanCandidates(nn int) [11]int {
	out := [11]int{nn}
	for i := 0; i < 10; i++ {
		out[i+1] = nn*10 + i
	}
	return out
}

// verifyGet reads one key through the probe session and compares it with
// the model directly; used once no client writes any more.
func (d *deployment) verifyGet(idx int, model []uint64, v *verdict) {
	v.attempted++
	rec := d.get(d.sessions[probeSession], idx, false)
	if rec.failed || rec.tag != model[idx] {
		v.reject("after restart: key %d saw %x (failed=%v), model has %x", idx, rec.tag, rec.failed, model[idx])
	}
}

// settle puts the deployment into the same phase of its compaction cycle
// in every run before heap and restart time are looked at: both follow
// the length of the live delta chain (the replica mirrors hold it in
// memory, recovery folds it), which at window end is anywhere between
// zero and a full cycle. The probe session writes shard-0 keys until
// shard 0 re-seals its snapshot, then settleRecords more. The puts are
// recorded like any others, so the oracle replays them.
func (d *deployment) settle(seed int64, t timing) {
	if !t.settle {
		return // -quick: up to a full cycle of fsynced puts is most of its run time
	}
	rng := clientRNG(seed, probeSession+1)
	probe := d.sessions[probeSession]
	put := func() bool {
		idx := d.onShard0[rng.Intn(len(d.onShard0))]
		return !d.put(probe, idx, d.gen.Value(rng)).failed
	}
	before := d.store.reseals.Load()
	// A chain never exceeds core.CompactMaxRecords records, one per batch.
	for i := 0; i < 2*core.CompactMaxRecords && d.store.reseals.Load() == before; i++ {
		if !put() {
			return
		}
	}
	for i := 0; i < settleRecords; i++ {
		if !put() {
			return
		}
	}
}

// restartLoop measures recovery: Enclave(0).Restart() until the first
// verified reply from the restarted shard, over at least t.restarts
// restarts and for up to restartBudget (small states restart in a few
// milliseconds, so they get more samples). The first restart is
// discarded. After the last one every key is read back once more.
func (d *deployment) restartLoop(t timing, model []uint64, v *verdict) (ms []float64, chainRecords float64, err error) {
	if st, serr := core.QueryStatus(d.server.ShardCall(0)); serr == nil {
		chainRecords = float64(st.ChainLen)
	}
	begin := time.Now()
	for i := 0; len(ms) < t.restarts || (len(ms) < maxRestarts && time.Since(begin) < t.restartBudget); i++ {
		start := time.Now()
		if err := d.server.Enclave(0).Restart(); err != nil {
			return nil, 0, fmt.Errorf("restart %d: %w", i, err)
		}
		d.verifyGet(d.onShard0[i%len(d.onShard0)], model, v)
		if i > 0 {
			ms = append(ms, float64(time.Since(start))/1e6)
		}
	}
	for idx := range d.keys {
		d.verifyGet(idx, model, v)
	}
	return ms, chainRecords, nil
}

// checkConsistency feeds the verified operations the sessions observed
// to the repository's fork-linearizability checker: every shard's history
// from sequence number 1 (the load, so the checker's replay has no gap)
// up to a horizon of consistencyEvents past the load. The checker's
// stability rule is quadratic in the history's length, so it gets a
// prefix; checkHistory covers the rest. That rule counts a client as a
// witness of a stable number only if the client's own recorded history
// reaches it, so observations whose stable number lies past the point
// where the slower client's prefix ends are left out.
func (d *deployment) checkConsistency() error {
	var floor [maxShards]uint64
	for i, s := range d.sessions[:numClients] {
		var reached [maxShards]uint64
		for _, o := range s.events {
			reached[o.Shard] = o.Result.Seq
		}
		for shard := range floor {
			if i == 0 || reached[shard] < floor[shard] {
				floor[shard] = reached[shard]
			}
		}
	}
	log := consistency.NewLog()
	for _, s := range d.sessions {
		for _, o := range s.events {
			if o.Result.Stable > floor[o.Shard] {
				continue
			}
			log.Record(consistency.Event{Client: s.id, Gen: int(o.Gen), Shard: o.Shard,
				Seq: o.Result.Seq, Stable: o.Result.Stable, Op: o.Op, Result: o.Result.Value, Chain: o.Chain})
		}
	}
	return log.CheckSharded(kvs.Factory())
}

// latencies splits the window's operations by completion time into
// sub-windows, in µs.
type latencies struct {
	all, put, get, scan [][]float64
	mean                float64 // of all, over the whole window
}

func (d *deployment) latencies(w windowSpan) latencies {
	l := latencies{
		all: make([][]float64, subWindows), put: make([][]float64, subWindows),
		get: make([][]float64, subWindows), scan: make([][]float64, subWindows),
	}
	subLen := (w.end - w.start) / subWindows
	var sum float64
	n := 0
	for _, s := range d.sessions[:numClients] {
		for _, rec := range s.recs {
			if rec.end < w.start || rec.end >= w.end || rec.failed {
				continue
			}
			sub := min(int((rec.end-w.start)/subLen), subWindows-1)
			us := float64(rec.lat) / 1e3
			sum += us
			n++
			l.all[sub] = append(l.all[sub], us)
			switch rec.kind {
			case opPut:
				l.put[sub] = append(l.put[sub], us)
			case opGet, opRead:
				l.get[sub] = append(l.get[sub], us)
			case opScan:
				l.scan[sub] = append(l.scan[sub], us)
			}
		}
	}
	l.mean = ratio(sum, float64(n))
	return l
}

// opsPerSecond is the median over the sub-windows of operations completed
// per second.
func (l latencies) opsPerSecond(w windowSpan) (rate float64, n int) {
	subSeconds := float64(w.end-w.start) / subWindows / 1e9
	rates := make([]float64, subWindows)
	for i, sub := range l.all {
		rates[i] = float64(len(sub)) / subSeconds
		n += len(sub)
	}
	return median(rates), n
}

func flatten(subs [][]float64) []float64 {
	var out []float64
	for _, sub := range subs {
		out = append(out, sub...)
	}
	sort.Float64s(out)
	return out
}

// heapMB is HeapAlloc after two collections (the second empties the
// sync.Pool victim caches), with the sessions still open and the
// benchmark's own record buffers already dropped.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// outcome is what one run reports.
type outcome struct {
	verdict verdict
	metrics []metric
	spans   []span // traced runs
}

// timedRun measures the end-to-end metrics with every timing decorator
// off: set-up (repeated, median reported) → warm-up → window → read-back
// → settle → oracle → heap → restarts.
func timedRun(w *workload, seed int64, t timing, tmp string) (*outcome, error) {
	// Set up at least t.setups times, and small deployments (tenths of a
	// second) more often while setupBudget lasts; the last one is measured.
	var d *deployment
	var setups []float64
	begin := time.Now()
	for len(setups) < t.setups || (len(setups) < maxSetups && time.Since(begin) < t.setupBudget) {
		if d != nil {
			d.close()
		}
		var err error
		if d, err = deploy(w, seed, tmp, nil, t.expectOps()); err != nil {
			return nil, err
		}
		setups = append(setups, d.setup.Seconds())
	}
	defer d.close()

	win := d.drive(seed, t, d.sampleCounts)
	d.readBack()
	d.settle(seed, t)
	model, v := d.checkHistory()
	delta := win.wholeCycles()
	out := &outcome{}
	add := func(name string, value float64, n int, supported bool) {
		out.metrics = append(out.metrics, metric{Name: name, Value: value, N: n, Unsupported: !supported})
	}
	add("setup_s", median(setups), len(setups), true)
	lat := d.latencies(win)
	rate, n := lat.opsPerSecond(win)
	add("ops_per_s", rate, n, true)
	p, n, ok := subWindowQuantile(lat.put, 0.5)
	add("put_p50_us", p, n, ok)
	p, n, ok = subWindowQuantile(lat.get, 0.5)
	add("get_p50_us", p, n, ok)
	add("store_bytes_per_op", ratio(delta["store_bytes"], delta["ops"]), int(delta["ops"]), true)

	// Drop the benchmark's own buffers before looking at the heap (lat is
	// dead from here on).
	for _, s := range d.sessions {
		s.recs, s.scans = nil, nil
	}
	add("heap_mb", heapMB(), 1, true)
	restarts, _, err := d.restartLoop(t, model, &v)
	if err != nil {
		return nil, err
	}
	add("restart_ms", median(restarts), len(restarts), true)
	out.verdict = v
	return out, nil
}
