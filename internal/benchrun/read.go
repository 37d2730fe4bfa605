package benchrun

import (
	"fmt"
	"time"

	"lcm/internal/ycsb"
)

// RunReadAblation measures the snapshot-isolated read path (PR 7): one
// LCM shard under the read-heavy YCSB-B mix (95 % reads) with
// synchronous writes and group commit — the durability regime where the
// serialized write loop makes every read queue behind fsyncs. Two arms
// per client count:
//
//   - lcm-read-serial:   reads are ordinary INVOKEs through the write
//     loop (the classic deployment; SnapshotReads off);
//   - lcm-read-snapshot: reads go through DoRead to the host's
//     concurrent read path executing against the enclave's durable
//     snapshot, while the 5 % writes keep the committer busy.
//
// The printed ratio is the tentpole claim: the snapshot arm must clear
// ≥ 2x the serial arm's throughput at full fidelity. Latency p50/p99
// land in the points for the benchdiff gate.
func RunReadAblation(cfg RunConfig, clients []int) ([]AblationPoint, error) {
	cfg = cfg.fill()
	if len(clients) == 0 {
		clients = []int{8, 16}
	}
	fmt.Fprintln(cfg.Out, "# Ablation — snapshot reads: serialized loop vs concurrent snapshot reads (YCSB-B, sync writes, group commit, 1 shard)")
	var points []AblationPoint
	for _, n := range clients {
		byArm := map[bool]float64{}
		for _, snap := range []bool{false, true} {
			name := "lcm-read-serial"
			if snap {
				name = "lcm-read-snapshot"
			}
			p, err := measureOptions(SysLCM, n, 100, true, 1, cfg, func(o *Options) {
				o.GroupCommit = true
				o.SnapshotReads = snap
				o.Workload = ycsb.WorkloadB
			}, nil)
			if err != nil {
				return nil, fmt.Errorf("%s clients=%d: %w", name, n, err)
			}
			point := AblationPoint{
				Name:       name,
				X:          n,
				Throughput: p.Throughput,
				MeanLat:    p.MeanLat,
				P50Lat:     p.P50Lat,
				P99Lat:     p.P99Lat,
			}
			points = append(points, point)
			byArm[snap] = p.Throughput
			fmt.Fprintf(cfg.Out, "%-18s clients=%-3d thr=%9.1f ops/s mean=%v p50=%v p99=%v\n",
				name, n, p.Throughput, p.MeanLat.Round(time.Microsecond),
				p.P50Lat.Round(time.Microsecond), p.P99Lat.Round(time.Microsecond))
		}
		if serial := byArm[false]; serial > 0 {
			fmt.Fprintf(cfg.Out, "clients=%-3d snapshot/serial read speedup = %.1fx (target: >=2x)\n",
				n, byArm[true]/serial)
		}
	}
	return points, nil
}
