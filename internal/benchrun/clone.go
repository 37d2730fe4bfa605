package benchrun

import (
	"errors"
	"fmt"
	"time"

	"lcm/internal/core"
)

// DefaultBeaconInterval is the recommended production beacon period.
// Each beacon's confirm pays one trusted-counter increment — ~60 ms of
// ME latency (Sec. 6.5) during which the single-threaded trusted
// context can serve nothing — so steady-state overhead is roughly
// (TMC increment)/(interval): 2% here, against a detection bound of two
// intervals. That ratio is the whole argument for the beacon: the
// TMC-per-operation baseline pays the same 60 ms on EVERY request
// (Fig. 5's flat 12 ops/s line), the beacon pays it once per interval
// regardless of load.
const DefaultBeaconInterval = 3 * time.Second

// RunCloneAblation sweeps the chain-heartbeat beacon interval and
// measures both sides of the trade:
//
//   - steady-state throughput with beacons at each interval against the
//     beacons-off baseline (the overhead of the defense — the ISSUE's
//     "<3% at the default interval" claim, printed per interval);
//   - the wall-clock latency from injecting a cloning attack
//     (host.Server.AttackClone) to one twin halting with a clone
//     verdict, recorded as a latency-only point (Throughput 0, like the
//     reshard pause points).
//
// Shorter intervals detect faster and cost more; the sweep locates the
// knee.
func RunCloneAblation(cfg RunConfig, intervals []time.Duration) ([]AblationPoint, error) {
	cfg = cfg.fill()
	if len(intervals) == 0 {
		intervals = []time.Duration{DefaultBeaconInterval, 500 * time.Millisecond, 100 * time.Millisecond, 25 * time.Millisecond}
	}
	fmt.Fprintln(cfg.Out, "# Ablation — clone-detection beacon interval (8 clients, batching, async writes)")

	base, err := measure(SysLCMBatch, 8, 100, false, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("beacons off: %w", err)
	}
	points := []AblationPoint{{
		Name: "lcm-beacon-off", X: 0,
		Throughput: base.Throughput, MeanLat: base.MeanLat, P50Lat: base.P50Lat, P99Lat: base.P99Lat,
	}}
	fmt.Fprintf(cfg.Out, "%-18s           thr=%9.1f ops/s mean=%v\n",
		"lcm-beacon-off", base.Throughput, base.MeanLat.Round(time.Microsecond))

	for _, iv := range intervals {
		p, err := measure(SysLCMBatch, 8, 100, false, cfg, func(o *Options) {
			o.BeaconInterval = iv
		})
		if err != nil {
			return nil, fmt.Errorf("beacon %v: %w", iv, err)
		}
		points = append(points, AblationPoint{
			Name: "lcm-beacon", X: int(iv / time.Millisecond),
			Throughput: p.Throughput, MeanLat: p.MeanLat, P50Lat: p.P50Lat, P99Lat: p.P99Lat,
		})
		overhead := 0.0
		if base.Throughput > 0 {
			overhead = (1 - p.Throughput/base.Throughput) * 100
		}
		note := ""
		if iv == DefaultBeaconInterval {
			note = " (default interval; claim: <3%)"
		}
		fmt.Fprintf(cfg.Out, "%-18s iv=%-6s thr=%9.1f ops/s mean=%v overhead=%+.1f%%%s\n",
			"lcm-beacon", iv, p.Throughput, p.MeanLat.Round(time.Microsecond), overhead, note)

		detect, err := measureCloneDetection(cfg, iv)
		if err != nil {
			return nil, fmt.Errorf("clone detection at %v: %w", iv, err)
		}
		points = append(points, AblationPoint{
			Name: "lcm-clone-detect", X: int(iv / time.Millisecond),
			MeanLat: detect,
		})
		fmt.Fprintf(cfg.Out, "%-18s iv=%-6s detection latency=%v (bound: 2 intervals = %v)\n",
			"lcm-clone-detect", iv, detect.Round(time.Millisecond), 2*iv)
	}
	return points, nil
}

// measureCloneDetection deploys LCM with the beacon armed, waits for the
// primary's first beacon, injects a clone of shard 0 from its sealed
// state, and times how long until one twin halts with ErrCloneDetected
// (the beacon counter collision). No client traffic is needed: detection
// rides on the beacons alone.
func measureCloneDetection(cfg RunConfig, interval time.Duration) (time.Duration, error) {
	dep, err := Deploy(SysLCM, Options{
		Model:          cfg.model(),
		Dir:            cfg.Dir,
		Clients:        4,
		BeaconInterval: interval,
	})
	if err != nil {
		return 0, err
	}
	defer dep.Close()

	deadline := time.Now().Add(10*interval + 10*time.Second)
	for {
		st, err := core.QueryStatus(dep.host.ECall)
		if err != nil {
			return 0, err
		}
		if st.BeaconSeq >= 1 {
			break
		}
		if time.Now().After(deadline) {
			return 0, errors.New("primary never beaconed")
		}
		time.Sleep(interval/4 + time.Millisecond)
	}

	start := time.Now()
	if _, err := dep.host.AttackClone(0); err != nil {
		return 0, err
	}
	for {
		for i := 0; ; i++ {
			enc := dep.host.Enclave(i)
			if enc == nil {
				break
			}
			if herr := enc.HaltedErr(); herr != nil && errors.Is(herr, core.ErrCloneDetected) {
				return time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			return 0, errors.New("clone was not detected")
		}
		time.Sleep(time.Millisecond)
	}
}
