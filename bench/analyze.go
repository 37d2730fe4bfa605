package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"lcm/internal/core"
)

// tracedRun produces the per-layer metrics. Phase one redeploys the
// workload untraced for a short reference window (the overhead figure's
// base, and the tail percentiles tracing would distort); phase two
// redeploys it with every decorator on, same seed, and after the window
// also runs the consistency checker, a few restarts and the fixed-count
// probes.
func tracedRun(w *workload, seed int64, ref, t timing, tmp string) (*outcome, error) {
	out := &outcome{}
	add := func(name string, value float64, n int, supported bool) {
		out.metrics = append(out.metrics, metric{Name: name, Value: value, N: n, Unsupported: !supported})
	}

	rd, err := deploy(w, seed, tmp, nil, ref.expectOps())
	if err != nil {
		return nil, err
	}
	refWin := rd.drive(seed, ref, rd.sampleCounts)
	rd.readBack()
	_, out.verdict = rd.checkHistory()
	refLat := rd.latencies(refWin)
	rd.close()
	refRate, _ := refLat.opsPerSecond(refWin)
	for _, tail := range []struct {
		name string
		subs [][]float64
		q    float64
	}{
		{"client.put_p99_us", refLat.put, 0.99}, {"client.get_p99_us", refLat.get, 0.99},
		{"client.scan_p50_us", refLat.scan, 0.5}, {"client.lat_p95_us", refLat.all, 0.95},
		{"client.lat_p999_us", refLat.all, 0.999},
	} {
		sorted := flatten(tail.subs)
		v, ok := quantile(sorted, tail.q)
		add(tail.name, v, len(sorted), ok || len(sorted) == 0)
	}
	var slowest float64
	all := flatten(refLat.all) // ascending
	if len(all) > 0 {
		slowest = all[len(all)-1]
	}
	add("client.lat_max_ms", slowest/1e3, len(all), true)

	tr := newTracer(time.Now(), t.expectOps()*numClients*8)
	d, err := deploy(w, seed, tmp, tr, t.expectOps())
	if err != nil {
		return nil, err
	}
	defer d.close()
	win := d.drive(seed, t, d.sampleStatus)
	d.readBack()
	d.settle(seed, t)
	model, v := d.checkHistory()
	if err := d.checkConsistency(); err != nil {
		v.reject("CheckSharded: %v", err)
	}
	lat := d.latencies(win)
	tracedRate, ops := lat.opsPerSecond(win)
	add("trace.ops_per_s", tracedRate, ops, true)
	add("trace.overhead_frac", 1-ratio(tracedRate, refRate), ops, true)

	layers := analyzeSpans(tr.recorded(), win)
	out.metrics = append(out.metrics, layers.metrics...)
	add("trace.do_sum_err_frac", ratio(math.Abs(layers.doMeanUS-lat.mean), lat.mean), layers.ops, true)

	delta := win.last.delta(win.first)
	add("host.records_per_group", ratio(delta["group_records"], delta["groups"]), int(delta["groups"]), true)
	add("host.max_group", win.last["max_group"], int(win.last["groups"]), true)
	add("core.compactions", delta["compactions"], 1, true)
	add("replication.live_peers", win.last["live_peers"], 1, true)
	add("replication.heals", delta["heals"], 1, true)

	echo, err := echoRTT(layers.meanFrame, t.probeIters)
	if err != nil {
		return nil, err
	}
	add("transport.echo_rtt_us", echo, t.probeIters, true)
	add("host.unaccounted_us_per_op", layers.waitUS-layers.serverBusyUS-echo, layers.ops, true)

	overhead, err := d.ecallOverhead(t.probeIters)
	if err != nil {
		return nil, err
	}
	add("tee.ecall_overhead_us", overhead, t.probeIters, true)

	mark := len(tr.recorded())
	_, chainRecords, err := d.restartLoop(t, model, &v)
	if err != nil {
		return nil, err
	}
	var inits []float64
	for _, s := range tr.recorded()[mark:] {
		if s.Kind == spCoreInit {
			inits = append(inits, float64(s.End-s.Start)/1e6)
		}
	}
	add("core.init_ms", median(inits), len(inits), true)
	add("core.chain_records_at_restart", chainRecords, 1, true)

	probes, err := unitProbes(t.probeIters, tmp)
	if err != nil {
		return nil, err
	}
	out.metrics = append(out.metrics, probes...)

	out.verdict.attempted += v.attempted
	out.verdict.failed += v.failed
	out.verdict.problems = append(out.verdict.problems, v.problems...)
	out.spans = tr.recorded()
	return out, nil
}

// ecallOverhead times n status ecalls at Enclave.Call and subtracts what
// the wrapped program saw of them: what is left is the enclave's entry
// cost (call lock, per-call sealing-key derivation, env set-up).
func (d *deployment) ecallOverhead(n int) (float64, error) {
	mark := len(d.tr.recorded())
	enclave := d.server.Enclave(0)
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := enclave.Call(core.EncodeStatusCall()); err != nil {
			return 0, fmt.Errorf("status ecall: %w", err)
		}
	}
	wall := float64(time.Since(start))
	var inside float64
	for _, s := range d.tr.recorded()[mark:] {
		if s.Kind == spCoreOther {
			inside += float64(s.End - s.Start)
		}
	}
	return (wall - inside) / float64(n) / 1e3, nil
}

// layerReport is what the span file yields for one window.
type layerReport struct {
	metrics      []metric
	ops          int     // client.do spans that ended in the window
	doMeanUS     float64 // client.self + transport.send + client.wait, per op
	waitUS       float64 // client.wait per op
	serverBusyUS float64 // (core + stablestore + replication busy) per op
	meanFrame    int     // mean bytes per frame, either direction
}

// analyzeSpans turns the spans that ended inside the window into the
// per-layer metrics. Per-op shares divide by the number of client
// operations completed in the window; means divide by the layer's own
// call count. A layer's self time is its spans minus the union of their
// children; busy fractions are unions over the window.
func analyzeSpans(spans []span, w windowSpan) layerReport {
	var byKind [numSpanKinds][]span
	children := make(map[uint64][]interval)
	for _, s := range spans {
		if s.End < w.start || s.End >= w.end {
			continue
		}
		byKind[s.Kind] = append(byKind[s.Kind], s)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	sum := func(kinds ...spanKind) (total float64, n int, units, bytes float64) {
		for _, k := range kinds {
			for _, s := range byKind[k] {
				total += float64(s.End - s.Start)
				units += float64(s.N)
				bytes += float64(s.Bytes)
			}
			n += len(byKind[k])
		}
		return total, n, units, bytes
	}
	self := func(kind spanKind) (total float64) {
		for _, s := range byKind[kind] {
			total += float64(selfTime(s.interval(), children[s.ID]))
		}
		return total
	}
	busy := func(kinds ...spanKind) float64 {
		var ivs []interval
		for _, k := range kinds {
			for _, s := range byKind[k] {
				ivs = append(ivs, s.interval())
			}
		}
		return float64(unionLength(ivs, w.start, w.end))
	}
	windowNS := float64(w.end - w.start)

	var r layerReport
	add := func(name string, value float64, n int) {
		r.metrics = append(r.metrics, metric{Name: name, Value: value, N: n})
	}
	perOpUS := func(ns float64) float64 { return ratio(ns, float64(r.ops)) / 1e3 }
	meanUS := func(ns float64, n int) float64 { return ratio(ns, float64(n)) / 1e3 }

	_, r.ops, _, _ = sum(spClientDo)
	ops := float64(r.ops)
	sendNS, sends, _, out := sum(spTransportSend)
	waitNS, recvs, _, in := sum(spClientWait)
	selfNS := self(spClientDo)
	r.waitUS = perOpUS(waitNS)
	r.doMeanUS = perOpUS(selfNS + sendNS + waitNS)
	r.meanFrame = int(ratio(out+in, float64(sends+recvs)))
	add("client.self_us_per_op", perOpUS(selfNS), r.ops)
	add("client.wait_us_per_op", r.waitUS, r.ops)
	add("client.sends_per_op", ratio(float64(sends), ops), r.ops)
	add("transport.send_us_per_op", perOpUS(sendNS), sends)
	add("transport.bytes_out_per_op", ratio(out, ops), sends)
	add("transport.bytes_in_per_op", ratio(in, ops), recvs)

	callNS, calls, invokes, _ := sum(spCoreCall)
	_, others, _, _ := sum(spCoreOther)
	readNS, reads, _, _ := sum(spCoreRead)
	add("host.ops_per_ecall", ratio(invokes, float64(calls)), calls)
	add("host.other_ecalls_per_op", ratio(float64(others), ops), others)
	add("core.call_us_per_op", perOpUS(callNS), calls)
	durations := make([]float64, 0, calls)
	for _, s := range byKind[spCoreCall] {
		durations = append(durations, float64(s.End-s.Start)/1e3)
	}
	sort.Float64s(durations)
	p99, ok := quantile(durations, 0.99)
	r.metrics = append(r.metrics, metric{Name: "core.call_us_p99", Value: p99, N: calls, Unsupported: !ok && calls > 0})
	add("core.self_us_per_op", perOpUS(self(spCoreCall)), calls)
	coreBusy := busy(spCoreCall, spCoreOther, spCoreRead)
	add("core.busy_frac", coreBusy/windowNS, calls+others+reads)
	add("core.read_us_per_op", meanUS(readNS, reads), reads)
	var stall float64
	compacting := make(map[uint64]bool)
	for _, s := range byKind[spKVSSnapshot] {
		compacting[s.Parent] = true
	}
	for _, s := range byKind[spCoreCall] {
		if compacting[s.ID] {
			stall = max(stall, float64(s.End-s.Start)/1e6)
		}
	}
	add("core.compaction_stall_ms_max", stall, len(compacting))

	applyNS, applies, _, _ := sum(spKVSApply)
	deltaNS, deltas, _, _ := sum(spKVSDelta)
	snapNS, snaps, _, _ := sum(spKVSSnapshot)
	sreadNS, sreads, _, _ := sum(spKVSSnapshotRead)
	scanNS, scans, _, _ := sum(spKVSScan)
	add("kvs.apply_us_per_op", meanUS(applyNS, applies), applies)
	add("kvs.delta_us_per_batch", meanUS(deltaNS, deltas), deltas)
	add("kvs.snapshot_ms_mean", meanUS(snapNS, snaps)/1e3, snaps)
	add("kvs.snapshot_read_us_per_op", meanUS(sreadNS, sreads), sreads)
	add("kvs.scan_us_per_op", meanUS(scanNS, scans), scans)

	appendNS, flushes, records, logBytes := sum(spStoreAppend)
	blobNS, blobs, _, blobBytes := sum(spStoreBlob)
	storeBusy := busy(spStoreAppend, spStoreBlob, spStoreOther)
	add("stablestore.flushes_per_op", ratio(float64(flushes), ops), flushes)
	add("stablestore.records_per_flush", ratio(records, float64(flushes)), flushes)
	add("stablestore.append_us_mean", meanUS(appendNS, flushes), flushes)
	add("stablestore.busy_frac", storeBusy/windowNS, flushes+blobs)
	add("stablestore.log_bytes_per_op", ratio(logBytes, ops), flushes)
	add("stablestore.blob_bytes_per_op", ratio(blobBytes, ops), blobs)
	add("stablestore.blob_store_ms_mean", meanUS(blobNS, blobs)/1e3, blobs)

	mirrorNS, mirrors, _, _ := sum(spMirrorAppend)
	mirrorBusy := busy(spMirrorAppend, spMirrorOther)
	add("replication.mirror_flushes_per_op", ratio(float64(mirrors), ops), mirrors)
	add("replication.mirror_append_us_mean", meanUS(mirrorNS, mirrors), mirrors)
	add("replication.mirror_busy_frac", mirrorBusy/windowNS, mirrors)

	r.serverBusyUS = perOpUS(coreBusy + storeBusy + mirrorBusy)
	return r
}
