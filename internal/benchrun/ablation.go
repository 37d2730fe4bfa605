package benchrun

import (
	"fmt"
	"time"
)

// AblationPoint is one row of the design-choice ablations (beyond the
// paper's figures; README.md's "Evaluation" section lists them).
type AblationPoint struct {
	Name       string
	X          int
	Throughput float64
	MeanLat    time.Duration

	// Latency distribution of the measurement window; zero on older
	// baselines (benchdiff's p99 gate only engages when both sides
	// carry it).
	P50Lat time.Duration `json:",omitempty"`
	P99Lat time.Duration `json:",omitempty"`

	// Group-commit observations (sync-writes ablation only): mean and
	// largest number of delta records covered by one fsync.
	AvgGroup float64 `json:",omitempty"`
	MaxGroup int     `json:",omitempty"`

	// HandoffBytes is the sealed client-handoff size of a reshard
	// (membership ablation only; such points carry Throughput 0 so the
	// benchdiff throughput gate skips them).
	HandoffBytes int `json:",omitempty"`
}

// RunBatchAblation sweeps the batching depth for LCM at a fixed client
// count, quantifying the Sec. 5.2 design choice (the paper only reports
// batch 1 and 16).
func RunBatchAblation(cfg RunConfig, batches []int) ([]AblationPoint, error) {
	cfg = cfg.fill()
	if len(batches) == 0 {
		batches = []int{1, 2, 4, 8, 16, 32}
	}
	fmt.Fprintln(cfg.Out, "# Ablation — LCM batching depth (8 clients, async writes)")
	var points []AblationPoint
	for _, b := range batches {
		p, err := measureLCMWithBatch(cfg, b)
		if err != nil {
			return nil, err
		}
		points = append(points, p)
		fmt.Fprintf(cfg.Out, "batch=%-3d thr=%9.1f ops/s mean=%v\n", p.X, p.Throughput, p.MeanLat.Round(time.Microsecond))
	}
	return points, nil
}

func measureLCMWithBatch(cfg RunConfig, batch int) (AblationPoint, error) {
	p, err := measureWith(SysLCMBatch, 8, 100, false, batch, cfg)
	if err != nil {
		return AblationPoint{}, err
	}
	return AblationPoint{Name: "lcm-batch", X: batch, Throughput: p.Throughput, MeanLat: p.MeanLat, P50Lat: p.P50Lat, P99Lat: p.P99Lat}, nil
}

// RunSyncWritesAblation sweeps the client count in the synchronous-write
// regime of Fig. 6 and compares three LCM durability designs at batch
// size 1 — so any fsync amortization comes from concurrency, not from
// request batching:
//
//   - full:        per-batch full-state seal, per-batch fsync (the paper's
//     original persistence under SyncWrites);
//   - delta-fsync: sealed delta records, one fsync per batch (PR 1's
//     pipeline) — O(batch) sealed bytes, but still one drive round trip
//     per batch, so throughput stays flat as clients are added;
//   - delta-group: sealed delta records handed to the host's group
//     committer, where concurrent batches share one fsync (the Redis AOF
//     pattern) — the durable configuration finally scales with the client
//     count.
func RunSyncWritesAblation(cfg RunConfig, clients []int) ([]AblationPoint, error) {
	cfg = cfg.fill()
	if len(clients) == 0 {
		clients = []int{8, 16}
	}
	fmt.Fprintln(cfg.Out, "# Ablation — sync writes: full seal vs per-batch-fsync delta vs group-commit delta (batch 1)")
	arms := []struct {
		name string
		tune func(*Options)
	}{
		{"lcm-sync-full", func(o *Options) { o.FullSeal = true }},
		{"lcm-sync-delta-fsync", nil},
		{"lcm-sync-delta-group", func(o *Options) { o.GroupCommit = true }},
	}
	var points []AblationPoint
	byClients := map[int]map[string]float64{}
	for _, n := range clients {
		byClients[n] = map[string]float64{}
		for _, arm := range arms {
			p, err := measureSyncArm(arm.name, n, cfg, arm.tune)
			if err != nil {
				return nil, err
			}
			points = append(points, p)
			byClients[n][arm.name] = p.Throughput
			line := fmt.Sprintf("%-22s clients=%-3d thr=%9.1f ops/s mean=%v",
				p.Name, p.X, p.Throughput, p.MeanLat.Round(time.Microsecond))
			if p.AvgGroup > 0 {
				line += fmt.Sprintf(" group avg=%.1f max=%d", p.AvgGroup, p.MaxGroup)
			}
			fmt.Fprintln(cfg.Out, line)
		}
		if perBatch := byClients[n]["lcm-sync-delta-fsync"]; perBatch > 0 {
			fmt.Fprintf(cfg.Out, "clients=%-3d group-commit/per-batch-fsync speedup = %.1fx\n",
				n, byClients[n]["lcm-sync-delta-group"]/perBatch)
		}
	}
	return points, nil
}

// measureSyncArm measures one sync-writes arm at batch 1, capturing the
// group-commit statistics before teardown via the inspect hook.
func measureSyncArm(name string, clients int, cfg RunConfig, tune func(*Options)) (AblationPoint, error) {
	var groups, records, maxGroup int
	point, err := measureOptions(SysLCM, clients, 100, true, 1, cfg, tune, func(dep *Deployment) {
		groups, records, maxGroup = dep.GroupCommitStats()
	})
	if err != nil {
		return AblationPoint{}, fmt.Errorf("%s: %w", name, err)
	}
	p := AblationPoint{Name: name, X: clients, Throughput: point.Throughput, MeanLat: point.MeanLat, P50Lat: point.P50Lat, P99Lat: point.P99Lat}
	if groups > 0 {
		p.AvgGroup = float64(records) / float64(groups)
		p.MaxGroup = maxGroup
	}
	return p, nil
}

// shardAblationValueSize fixes the object size of the shard ablation at
// 1000 B. The point of sharding is the single-threaded trusted context:
// every operation holds its enclave for the in-enclave processing time,
// which at this object size (~275 µs of charged byte-processing, Fig. 4's
// regime) dominates the round trip — one enclave saturates well below
// the client-side offered load, and N independent enclaves lift the
// ceiling N-fold. (It also keeps the charged enclave time in the latency
// model's sleeping range, so the ablation measures the architecture
// rather than how many host cores can spin concurrently.)
const shardAblationValueSize = 1000

// RunShardAblation sweeps the shard count of the LCM deployment at fixed
// client loads (async writes, batch 1, 1000 B objects). One enclave
// serializes every operation — the single-threaded context that makes
// Fig. 5's enclave systems saturate — so partitioning the keyspace over N
// independent enclave instances is the scale lever once batching and
// group commit have amortized everything else: aggregate throughput
// should approach N× at client counts that saturate one enclave. The
// printed speedups quantify exactly that.
func RunShardAblation(cfg RunConfig, shards, clients []int) ([]AblationPoint, error) {
	cfg = cfg.fill()
	if len(shards) == 0 {
		shards = []int{1, 2, 4, 8}
	}
	if len(clients) == 0 {
		clients = []int{4, 16}
	}
	fmt.Fprintln(cfg.Out, "# Ablation — shard count (async writes, batch 1, 1000 B objects)")
	var points []AblationPoint
	thr := make(map[int]map[int]float64) // clients → shards → throughput
	for _, n := range clients {
		thr[n] = make(map[int]float64)
		for _, sh := range shards {
			p, err := measureOptions(SysLCM, n, shardAblationValueSize, false, 1, cfg, func(o *Options) {
				o.Shards = sh
			}, nil)
			if err != nil {
				return nil, fmt.Errorf("shards=%d clients=%d: %w", sh, n, err)
			}
			point := AblationPoint{
				Name:       fmt.Sprintf("lcm-shard%d", sh),
				X:          n,
				Throughput: p.Throughput,
				MeanLat:    p.MeanLat,
				P50Lat:     p.P50Lat,
				P99Lat:     p.P99Lat,
			}
			points = append(points, point)
			thr[n][sh] = p.Throughput
			fmt.Fprintf(cfg.Out, "%-14s clients=%-3d thr=%9.1f ops/s mean=%v\n",
				point.Name, n, p.Throughput, p.MeanLat.Round(time.Microsecond))
		}
		if base := thr[n][1]; base > 0 {
			for _, sh := range shards {
				if sh == 1 {
					continue
				}
				fmt.Fprintf(cfg.Out, "clients=%-3d %d-shard/1-shard speedup = %.1fx\n",
					n, sh, thr[n][sh]/base)
			}
		}
	}
	return points, nil
}

// RunBatchGroupSweep crosses the two fsync-amortization mechanisms under
// synchronous writes at a fixed client count: request batching (many
// operations per ecall → one delta record, one fsync) against host-side
// group commit (many records per fsync). The two attack the same cost
// from different layers, so the sweep locates the regime where batching
// alone subsumes group commit — at batch depths that cover the concurrent
// client count, one record already carries everyone's operations and the
// committer has nothing left to coalesce.
func RunBatchGroupSweep(cfg RunConfig, batches []int) ([]AblationPoint, error) {
	cfg = cfg.fill()
	if len(batches) == 0 {
		batches = []int{1, 4, 16}
	}
	const clients = 8
	fmt.Fprintln(cfg.Out, "# Ablation — batch × group-commit cross-product (sync writes, 8 clients)")
	var points []AblationPoint
	for _, b := range batches {
		byArm := map[bool]float64{}
		for _, group := range []bool{false, true} {
			arm := "sync"
			if group {
				arm = "group"
			}
			name := fmt.Sprintf("lcm-batch%d-%s", b, arm)
			var groups, records, maxGroup int
			p, err := measureOptions(SysLCM, clients, 100, true, b, cfg, func(o *Options) {
				o.GroupCommit = group
			}, func(dep *Deployment) {
				groups, records, maxGroup = dep.GroupCommitStats()
			})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			point := AblationPoint{Name: name, X: b, Throughput: p.Throughput, MeanLat: p.MeanLat, P50Lat: p.P50Lat, P99Lat: p.P99Lat}
			if groups > 0 {
				point.AvgGroup = float64(records) / float64(groups)
				point.MaxGroup = maxGroup
			}
			points = append(points, point)
			byArm[group] = p.Throughput
			line := fmt.Sprintf("%-18s batch=%-3d thr=%9.1f ops/s mean=%v",
				name, b, p.Throughput, p.MeanLat.Round(time.Microsecond))
			if point.AvgGroup > 0 {
				line += fmt.Sprintf(" group avg=%.1f max=%d", point.AvgGroup, point.MaxGroup)
			}
			fmt.Fprintln(cfg.Out, line)
		}
		if plain := byArm[false]; plain > 0 {
			ratio := byArm[true] / plain
			verdict := "group commit still pays"
			if ratio < 1.1 {
				verdict = "request batching subsumes group commit"
			}
			fmt.Fprintf(cfg.Out, "batch=%-3d group/plain = %.2fx (%s)\n", b, ratio, verdict)
		}
	}
	return points, nil
}

// RunSealAblation sweeps the store size and compares LCM's two
// persistence modes: per-batch full-state sealing (the paper's Sec. 5.2
// prototype, O(state) sealed bytes per batch) against the incremental
// sealed delta log (O(batch)). The gap widens with the record count —
// exactly the scaling argument for the delta log.
func RunSealAblation(cfg RunConfig, records []int) ([]AblationPoint, error) {
	cfg = cfg.fill()
	if len(records) == 0 {
		records = []int{1000, 4000, 16000}
	}
	fmt.Fprintln(cfg.Out, "# Ablation — sealed persistence: full-state seal vs delta log (8 clients, batching, async writes)")
	var points []AblationPoint
	for _, n := range records {
		c := cfg
		c.Records = n
		for _, fullSeal := range []bool{true, false} {
			name := "lcm-seal-delta"
			if fullSeal {
				name = "lcm-seal-full"
			}
			p, err := measureOptions(SysLCMBatch, 8, 100, false, 0, c, func(o *Options) {
				o.FullSeal = fullSeal
			}, nil)
			if err != nil {
				return nil, err
			}
			points = append(points, AblationPoint{Name: name, X: n, Throughput: p.Throughput, MeanLat: p.MeanLat, P50Lat: p.P50Lat, P99Lat: p.P99Lat})
			fmt.Fprintf(cfg.Out, "%-15s records=%-6d thr=%9.1f ops/s mean=%v\n",
				name, n, p.Throughput, p.MeanLat.Round(time.Microsecond))
		}
	}
	return points, nil
}
