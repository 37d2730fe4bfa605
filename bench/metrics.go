package main

// metric is one reported value. N is the number of samples behind it;
// Unsupported marks a percentile that had fewer than minBeyond samples
// above it and was lowered to the highest one the sample backs.
type metric struct {
	Name        string  `json:"name"`
	Value       float64 `json:"value"`
	Unit        string  `json:"unit"`
	N           int     `json:"samples"`
	Unsupported bool    `json:"unsupported,omitempty"`
}

// move says which end-to-end metrics a layer metric is expected to move,
// and on which workloads; Still lists workloads where it must not.
type move struct {
	EndToEnd  []string `json:"end_to_end"`
	Workloads []string `json:"workloads"`
	Still     []string `json:"no_move_on,omitempty"`
}

// metricDef declares one metric: BENCHMARK.json carries name, unit,
// direction and (end-to-end only) bound; -describe prints the rest.
type metricDef struct {
	Name       string  `json:"name"`
	Unit       string  `json:"unit"`
	Better     string  `json:"better"`
	Bound      float64 `json:"bound,omitempty"`
	Definition string  `json:"definition"`
	Moves      []move  `json:"moves,omitempty"`
}

// endToEnd are the metrics a user of the deployment sees, measured with
// every timing decorator off. Bound is the share of the parent's median a
// later change may lose before it is rejected.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Definition: "deploy + bootstrap + load until the first timed operation; median of 3 to 9 set-ups per run"},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25,
		Definition: "verified operations completed per second by 2 closed-loop clients; median over 4 sub-windows"},
	{Name: "put_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Definition: "median latency of a verified put; median over 4 sub-windows"},
	{Name: "get_p50_us", Unit: "us", Better: "lower", Bound: 0.25,
		Definition: "median latency of a verified get (Do, or DoRead where the workload uses it); median over 4 sub-windows"},
	{Name: "store_bytes_per_op", Unit: "B/op", Better: "lower", Bound: 0.05,
		Definition: "bytes handed to Store/Append/AppendGroup (log, snapshot rewrites, mirrors) per completed operation, counted without a clock over the whole compaction cycles inside the window"},
	{Name: "restart_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Definition: "Enclave(0).Restart() until the first verified reply, 128 records past a compaction; median of 10 to 100 after one discarded"},
	{Name: "heap_mb", Unit: "MB", Better: "lower", Bound: 0.15,
		Definition: "HeapAlloc after two runtime.GC(), 128 records past a compaction; sessions open, benchmark buffers dropped"},
}

var (
	cpuBound  = []string{"ycsba-async", "ycsbb-snapread"}
	syncBound = []string{"ycsba-sync", "ycsba-sync-repl2"}
	latency3  = []string{"put_p50_us", "get_p50_us", "ops_per_s"}
)

// perLayer are the single-layer metrics of a traced run (and the
// fixed-count probes that ride along). They have no bound.
var perLayer = []metricDef{
	// client: internal/client + internal/core's Alg. 1, as the driver loop sees it.
	{Name: "client.self_us_per_op", Unit: "us", Better: "lower",
		Definition: "client.do span minus its Send and reply-wait children: seal, frame, channel hand-off, verify",
		Moves:      []move{{EndToEnd: latency3, Workloads: cpuBound, Still: []string{"ycsba-sync"}}}},
	{Name: "client.wait_us_per_op", Unit: "us", Better: "lower",
		Definition: "Send returned until the reply frame was received, per operation",
		Moves:      []move{{EndToEnd: latency3, Workloads: cpuBound}}},
	{Name: "client.sends_per_op", Unit: "1/op", Better: "lower",
		Definition: "frames sent per operation (1 unless the session re-sends)"},
	{Name: "client.put_p99_us", Unit: "us", Better: "lower", Definition: "p99 put latency, untraced reference window (p99 did not repeat within 10 %, so it is not gated)"},
	{Name: "client.get_p99_us", Unit: "us", Better: "lower", Definition: "p99 get latency, untraced reference window"},
	{Name: "client.scan_p50_us", Unit: "us", Better: "lower",
		Definition: "median scatter-gather scan latency, untraced reference window; 0 where the workload has no scans (so it cannot be an end-to-end metric)",
		Moves:      []move{{EndToEnd: []string{"ops_per_s"}, Workloads: []string{"scanmix-2shard"}}}},
	{Name: "client.lat_p95_us", Unit: "us", Better: "lower",
		Definition: "p95 latency over all operations, untraced reference window; not gated: it spread by up to 44 % over ten runs of one commit on the fsync workloads"},
	{Name: "client.lat_p999_us", Unit: "us", Better: "lower", Definition: "p99.9 latency over all operations, untraced reference window"},
	{Name: "client.lat_max_ms", Unit: "ms", Better: "lower", Definition: "slowest operation, untraced reference window"},

	// transport: internal/transport framing over loopback TCP.
	{Name: "transport.send_us_per_op", Unit: "us", Better: "lower",
		Definition: "time inside Conn.Send under the sessions, per operation",
		Moves:      []move{{EndToEnd: latency3, Workloads: []string{"ycsba-async", "scanmix-2shard"}, Still: syncBound}}},
	{Name: "transport.bytes_out_per_op", Unit: "B/op", Better: "lower", Definition: "frame bytes the sessions sent per operation"},
	{Name: "transport.bytes_in_per_op", Unit: "B/op", Better: "lower", Definition: "frame bytes the sessions received per operation"},
	{Name: "transport.echo_rtt_us", Unit: "us", Better: "lower",
		Definition: "median round trip of a framed loopback echo at the workload's mean frame size",
		Moves:      []move{{EndToEnd: latency3, Workloads: []string{"ycsba-async", "scanmix-2shard"}, Still: syncBound}}},

	// host: internal/host batch loop and group committer.
	{Name: "host.ops_per_ecall", Unit: "count", Better: "higher",
		Definition: "invokes per batch ecall (BatchSize is 16)",
		Moves:      []move{{EndToEnd: []string{"ops_per_s"}, Workloads: []string{"ycsba-async"}}}},
	{Name: "host.records_per_group", Unit: "count", Better: "higher",
		Definition: "batch results per commit group (GroupCommitStats delta over the window)",
		Moves:      []move{{EndToEnd: []string{"ops_per_s", "put_p50_us"}, Workloads: []string{"ycsba-sync"}}}},
	{Name: "host.max_group", Unit: "count", Better: "higher", Definition: "largest commit group since deploy (a running maximum, not a delta; the load is one client, so groups of 1)"},
	{Name: "host.other_ecalls_per_op", Unit: "1/op", Better: "lower",
		Definition: "non-batch ecalls (advance-durable, status) per operation",
		Moves:      []move{{EndToEnd: []string{"put_p50_us"}, Workloads: []string{"ycsbb-snapread"}}}},
	{Name: "host.unaccounted_us_per_op", Unit: "us", Better: "lower",
		Definition: "client.wait minus (core + stablestore + replication busy)/ops minus transport.echo_rtt: queueing, scheduler, kernel",
		Moves:      []move{{EndToEnd: []string{"ops_per_s"}, Workloads: []string{"ycsba-async"}}}},

	// tee: internal/tee ecall entry.
	{Name: "tee.ecall_overhead_us", Unit: "us", Better: "lower",
		Definition: "status ecall wall time at Enclave.Call minus the wrapped program's span: lock, per-call sealing-key HKDF, env",
		Moves:      []move{{EndToEnd: []string{"put_p50_us"}, Workloads: []string{"ycsba-async"}}}},

	// core: internal/core trusted context (Alg. 2, sealing, compaction, recovery).
	{Name: "core.call_us_per_op", Unit: "us", Better: "lower",
		Definition: "time inside batch ecalls (Program.Call) per client operation",
		Moves:      []move{{EndToEnd: []string{"ops_per_s"}, Workloads: []string{"ycsba-async", "bigstate-restart"}}}},
	{Name: "core.call_us_p99", Unit: "us", Better: "lower", Definition: "p99 duration of one batch ecall"},
	{Name: "core.self_us_per_op", Unit: "us", Better: "lower",
		Definition: "batch ecall time minus the service spans inside it (unseal, Alg. 2 checks, hash chain, seal reply, seal delta) per client operation",
		Moves:      []move{{EndToEnd: []string{"ops_per_s"}, Workloads: []string{"ycsba-async", "bigstate-restart"}}}},
	{Name: "core.busy_frac", Unit: "ratio", Better: "lower", Definition: "share of the window in which some ecall (batch, other or read) was executing"},
	{Name: "core.read_us_per_op", Unit: "us", Better: "lower",
		Definition: "Program.HandleRead time per snapshot read",
		Moves:      []move{{EndToEnd: []string{"get_p50_us"}, Workloads: []string{"ycsbb-snapread"}}}},
	{Name: "core.compactions", Unit: "count", Better: "lower",
		Definition: "full re-seals during the window (Status.Compactions delta)",
		Moves:      []move{{EndToEnd: []string{"ops_per_s", "store_bytes_per_op", "restart_ms"}, Workloads: []string{"bigstate-restart"}}}},
	{Name: "core.compaction_stall_ms_max", Unit: "ms", Better: "lower",
		Definition: "longest batch ecall that contained a Service.Snapshot",
		Moves:      []move{{EndToEnd: []string{"ops_per_s"}, Workloads: []string{"bigstate-restart"}}}},
	{Name: "core.init_ms", Unit: "ms", Better: "lower",
		Definition: "median Program.Init over the traced run's restarts (unseal snapshot + fold chain)",
		Moves:      []move{{EndToEnd: []string{"restart_ms"}, Workloads: []string{"bigstate-restart"}}}},
	{Name: "core.chain_records_at_restart", Unit: "count", Better: "lower",
		Definition: "delta records on the live chain when the restarts began (core.QueryStatus)",
		Moves:      []move{{EndToEnd: []string{"restart_ms"}, Workloads: []string{"bigstate-restart"}}}},

	// kvs: internal/kvs behind internal/service.
	{Name: "kvs.apply_us_per_op", Unit: "us", Better: "lower",
		Definition: "Service.Apply time per get/put applied",
		Moves:      []move{{EndToEnd: []string{"ops_per_s"}, Workloads: []string{"ycsba-async", "bigstate-restart"}}}},
	{Name: "kvs.delta_us_per_batch", Unit: "us", Better: "lower", Definition: "Service.Delta time per batch"},
	{Name: "kvs.snapshot_ms_mean", Unit: "ms", Better: "lower",
		Definition: "mean Service.Snapshot time (one per compaction)",
		Moves:      []move{{EndToEnd: []string{"ops_per_s"}, Workloads: []string{"bigstate-restart"}}}},
	{Name: "kvs.snapshot_read_us_per_op", Unit: "us", Better: "lower",
		Definition: "Service.SnapshotRead time per snapshot read",
		Moves:      []move{{EndToEnd: []string{"get_p50_us"}, Workloads: []string{"ycsbb-snapread"}}}},
	{Name: "kvs.scan_us_per_op", Unit: "us", Better: "lower",
		Definition: "Service.Apply time per per-shard scan",
		Moves:      []move{{EndToEnd: []string{"ops_per_s"}, Workloads: []string{"scanmix-2shard"}}}},

	// stablestore: the primary chain's slots on the FileStore.
	{Name: "stablestore.flushes_per_op", Unit: "1/op", Better: "lower",
		Definition: "Append/AppendGroup calls on primary slots per operation",
		Moves:      []move{{EndToEnd: []string{"ops_per_s", "put_p50_us"}, Workloads: []string{"ycsba-sync"}}}},
	{Name: "stablestore.records_per_flush", Unit: "count", Better: "higher", Definition: "delta records per Append/AppendGroup call"},
	{Name: "stablestore.append_us_mean", Unit: "us", Better: "lower",
		Definition: "mean Append/AppendGroup time on primary slots (the fsync, where the workload syncs)",
		Moves:      []move{{EndToEnd: []string{"ops_per_s", "put_p50_us"}, Workloads: []string{"ycsba-sync"}, Still: []string{"ycsbb-snapread"}}}},
	{Name: "stablestore.busy_frac", Unit: "ratio", Better: "lower", Definition: "share of the window in which some primary-slot store call was in progress"},
	{Name: "stablestore.log_bytes_per_op", Unit: "B/op", Better: "lower",
		Definition: "delta-log bytes appended per operation",
		Moves:      []move{{EndToEnd: []string{"store_bytes_per_op"}, Workloads: []string{"ycsba-async", "ycsba-sync", "ycsbb-snapread", "ycsba-sync-repl2", "scanmix-2shard", "bigstate-restart"}}}},
	{Name: "stablestore.blob_bytes_per_op", Unit: "B/op", Better: "lower",
		Definition: "snapshot bytes rewritten per operation",
		Moves:      []move{{EndToEnd: []string{"store_bytes_per_op"}, Workloads: []string{"bigstate-restart"}}}},
	{Name: "stablestore.blob_store_ms_mean", Unit: "ms", Better: "lower", Definition: "mean Store (blob rewrite) time on primary slots"},

	// replication: mirror writes on replica*/ slots, plus the host's view of the set.
	{Name: "replication.mirror_flushes_per_op", Unit: "1/op", Better: "lower",
		Definition: "Append/AppendGroup calls on replica slots per operation",
		Moves:      []move{{EndToEnd: []string{"ops_per_s", "put_p50_us"}, Workloads: []string{"ycsba-sync-repl2"}}}},
	{Name: "replication.mirror_append_us_mean", Unit: "us", Better: "lower",
		Definition: "mean mirror append time (includes waiting for the FileStore mutex the primary shares)",
		Moves:      []move{{EndToEnd: []string{"ops_per_s", "put_p50_us"}, Workloads: []string{"ycsba-sync-repl2"}}}},
	{Name: "replication.mirror_busy_frac", Unit: "ratio", Better: "lower", Definition: "share of the window in which some replica-slot store call was in progress"},
	{Name: "replication.live_peers", Unit: "count", Better: "higher", Definition: "replica-set members alive at window end, primary included (DeploymentStatus); 0 when unreplicated"},
	{Name: "replication.heals", Unit: "count", Better: "lower", Definition: "stale chains healed from a peer during the window"},

	// Unit-cost probes: fixed iteration counts, one goroutine.
	{Name: "aead.seal_ns_256B", Unit: "ns", Better: "lower", Definition: "aead.Seal of 256 B"},
	{Name: "aead.open_ns_256B", Unit: "ns", Better: "lower", Definition: "aead.Open of 256 B"},
	{Name: "aead.seal_mbps_1MiB", Unit: "MB/s", Better: "higher", Definition: "aead.Seal throughput on 1 MiB"},
	{Name: "hashchain.extend_ns", Unit: "ns", Better: "lower", Definition: "hashchain.Extend over a 150 B operation"},
	{Name: "wire.invoke_codec_ns", Unit: "ns", Better: "lower", Definition: "wire.Invoke Encode + DecodeInvoke, 150 B operation"},
	{Name: "core.client_invoke_ns", Unit: "ns", Better: "lower", Definition: "core.NewClient + Client.Invoke: encode and seal one 150 B operation"},
	{Name: "kvs.apply_put_ns", Unit: "ns", Better: "lower", Definition: "kvs.Store.Apply(put) on 1 000 x 100 B"},
	{Name: "kvs.apply_get_ns", Unit: "ns", Better: "lower", Definition: "kvs.Store.Apply(get) on 1 000 x 100 B"},
	{Name: "stablestore.append_group_sync_us", Unit: "us", Better: "lower",
		Definition: "median FileStore.AppendGroup of one 300 B record with fsync: calibrates the sandbox disk, so a ycsba-sync move can be told from a machine move"},

	// trace: the apparatus's own cost and closure.
	{Name: "trace.ops_per_s", Unit: "ops/s", Better: "higher", Definition: "ops_per_s of the traced window itself"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower", Definition: "1 - traced ops_per_s / untraced reference ops_per_s; expected < 0.10"},
	{Name: "trace.do_sum_err_frac", Unit: "ratio", Better: "lower",
		Definition: "|client.self + transport.send + client.wait - mean recorded latency| / mean recorded latency; expected < 0.02"},
}

// withUnits fills in each metric's unit from its declaration and checks
// that exactly the declared metrics are present, in declaration order.
func withUnits(defs []metricDef, got []metric) ([]metric, bool) {
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		byName[m.Name] = m
	}
	out := make([]metric, 0, len(defs))
	complete := len(byName) == len(defs)
	for _, def := range defs {
		m, ok := byName[def.Name]
		if !ok {
			complete = false
			m = metric{Name: def.Name}
		}
		m.Unit = def.Unit
		out = append(out, m)
	}
	return out, complete
}
