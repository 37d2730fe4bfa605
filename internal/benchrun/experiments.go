package benchrun

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"lcm/internal/kvs"
	"lcm/internal/latency"
	"lcm/internal/ycsb"
)

// RunConfig tunes an experiment run. Zero fields get sensible defaults
// from fill(), except Scale: 0 turns the latency model off, as
// lcm-server -scale 0 does.
type RunConfig struct {
	// Duration is the measurement window per data point. The paper uses
	// 30 s; the default here is 2 s so a full figure regenerates in
	// minutes. Pass -duration 30s to lcm-bench for paper-faithful runs.
	Duration time.Duration
	// Scale multiplies every injected latency (1.0 = full fidelity, 0 =
	// none).
	Scale float64
	// SleepAll switches the latency model from spinning to sleeping for
	// every charge (lcm-bench -latencymodel sleep): charged enclave time
	// then overlaps across instances regardless of the host's core count,
	// so shard scaling is measurable at small object sizes even on a
	// single-core CI machine. See latency.Model.SleepAll.
	SleepAll bool
	// Clients overrides the client sweep of Figs. 5-6.
	Clients []int
	// Sizes overrides the object-size sweep of Fig. 4.
	Sizes []int
	// Records is the object count (paper: 1 000).
	Records int
	// Seed makes workload generation reproducible.
	Seed int64
	// Dir is a scratch directory; empty uses the system temp dir.
	Dir string
	// Out receives progress and the final table; nil discards.
	Out io.Writer
}

func (c RunConfig) fill() RunConfig {
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if len(c.Clients) == 0 {
		c.Clients = []int{1, 2, 4, 8, 16, 32}
	}
	if len(c.Sizes) == 0 {
		c.Sizes = []int{100, 500, 1000, 1500, 2000, 2500}
	}
	if c.Records == 0 {
		c.Records = 1000
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

func (c RunConfig) model() *latency.Model {
	m := latency.Scaled(c.Scale)
	m.SleepAll = c.SleepAll
	return m
}

// Point is one measured data point of a figure.
type Point struct {
	System     System
	X          int // clients (Figs. 5-6) or object size (Fig. 4)
	Throughput float64
	MeanLat    time.Duration
	P50Lat     time.Duration
	P99Lat     time.Duration
	Ops        int
	Errors     int
	// ChargedPerOp is what the latency model charged over the window,
	// per completed op: fixed by the ops the deployment ran, where the
	// wall clock is not.
	ChargedPerOp time.Duration
}

// measure deploys sys, loads the keyspace, runs the YCSB-A window and
// tears the deployment down; tune, if non-nil, adjusts the deployment
// options before Deploy.
func measure(sys System, clients, valueSize int, syncWrites bool, cfg RunConfig, tune func(*Options)) (Point, error) {
	opts := Options{
		Model:      cfg.model(),
		SyncWrites: syncWrites,
		Dir:        cfg.Dir,
		// One extra group slot for the load-phase session.
		Clients: clients + 1,
	}
	if tune != nil {
		tune(&opts)
	}
	dep, err := Deploy(sys, opts)
	if err != nil {
		return Point{}, fmt.Errorf("deploy %s: %w", sys, err)
	}
	defer dep.Close()

	w := ycsb.WorkloadA(cfg.Records, valueSize)

	// Load phase, without the RTT charge (the paper measures only the
	// transaction phase). Enclave-hosted baselines load as one batch.
	if err := loadDeployment(dep, w, cfg.Seed); err != nil {
		return Point{}, fmt.Errorf("load %s: %w", sys, err)
	}

	charged0 := opts.Model.Charged()
	report, err := ycsb.Run(dep.NewDB, w, clients, cfg.Duration, cfg.Seed)
	if err != nil {
		return Point{}, fmt.Errorf("run %s: %w", sys, err)
	}
	p := Point{
		System:     sys,
		X:          clients,
		Throughput: report.Throughput,
		MeanLat:    report.MeanLat,
		P50Lat:     report.P50Lat,
		P99Lat:     report.P99Lat,
		Ops:        report.Ops,
		Errors:     report.Errors,
	}
	if report.Ops > 0 {
		p.ChargedPerOp = (opts.Model.Charged() - charged0) / time.Duration(report.Ops)
	}
	return p, nil
}

func loadDeployment(dep *Deployment, w *ycsb.Workload, seed int64) error {
	if dep.fastLoad != nil {
		rng := rand.New(rand.NewSource(seed))
		keys := w.LoadKeys()
		ops := make([][]byte, len(keys))
		for i, k := range keys {
			ops[i] = kvs.Put(k, w.Value(rng))
		}
		return dep.fastLoad(ops)
	}
	loader, err := dep.NewSession()
	if err != nil {
		return err
	}
	return ycsb.Load(&noRTTDB{session: loader}, w, seed)
}

type noRTTDB struct {
	session interface {
		Get(string) ([]byte, bool, error)
		Put(string, string) error
	}
}

func (db *noRTTDB) Read(key string) error {
	_, _, err := db.session.Get(key)
	return err
}

func (db *noRTTDB) Update(key, value string) error {
	return db.session.Put(key, value)
}

// RunFig4 regenerates Figure 4: throughput with different object sizes
// (100-2 500 bytes), 8 clients, async disk writes, SGX vs LCM (both with
// batching, as in the paper's figure).
func RunFig4(cfg RunConfig) ([]Point, error) {
	cfg = cfg.fill()
	fmt.Fprintln(cfg.Out, "# Fig. 4 — throughput vs object size (8 clients, async writes)")
	var points []Point
	for _, sys := range []System{SysSGXBatch, SysLCMBatch} {
		for _, size := range cfg.Sizes {
			p, err := measure(sys, 8, size, false, cfg, nil)
			if err != nil {
				return nil, err
			}
			p.X = size
			points = append(points, p)
			fmt.Fprintf(cfg.Out, "%-20s size=%-5d thr=%9.1f ops/s mean=%v\n",
				p.System, p.X, p.Throughput, p.MeanLat.Round(time.Microsecond))
		}
	}
	return points, nil
}

// RunFig5 regenerates Figure 5: throughput with different numbers of
// clients, async disk writes, all seven series.
func RunFig5(cfg RunConfig) ([]Point, error) {
	cfg = cfg.fill()
	fmt.Fprintln(cfg.Out, "# Fig. 5 — throughput vs clients (1000 × 100 B objects, async writes)")
	return runClientSweep(cfg, false, AllSystems())
}

// RunFig6 regenerates Figure 6: the same sweep with synchronous disk
// writes (fsync on every state store / AOF append).
func RunFig6(cfg RunConfig) ([]Point, error) {
	cfg = cfg.fill()
	fmt.Fprintln(cfg.Out, "# Fig. 6 — throughput vs clients (1000 × 100 B objects, sync writes)")
	return runClientSweep(cfg, true, AllSystems())
}

// RunTMC regenerates the Sec. 6.5 comparison: the SGX+TMC series against
// LCM with batching, reporting the speedup factor.
func RunTMC(cfg RunConfig) ([]Point, error) {
	cfg = cfg.fill()
	fmt.Fprintln(cfg.Out, "# Sec. 6.5 — trusted monotonic counter vs LCM with batching (async writes)")
	points, err := runClientSweep(cfg, false, []System{SysSGXTMC, SysLCMBatch})
	if err != nil {
		return nil, err
	}
	// Report the per-client-count speedups (paper: 96x-2063x).
	byX := map[int]map[System]float64{}
	for _, p := range points {
		if byX[p.X] == nil {
			byX[p.X] = map[System]float64{}
		}
		byX[p.X][p.System] = p.Throughput
	}
	for _, x := range cfg.Clients {
		tmcThr, lcmThr := byX[x][SysSGXTMC], byX[x][SysLCMBatch]
		if tmcThr > 0 {
			fmt.Fprintf(cfg.Out, "clients=%-3d LCM+batch/TMC speedup = %.0fx\n", x, lcmThr/tmcThr)
		}
	}
	return points, nil
}

func runClientSweep(cfg RunConfig, syncWrites bool, systems []System) ([]Point, error) {
	var points []Point
	for _, sys := range systems {
		for _, clients := range cfg.Clients {
			p, err := measure(sys, clients, 100, syncWrites, cfg, nil)
			if err != nil {
				return nil, err
			}
			points = append(points, p)
			fmt.Fprintf(cfg.Out, "%-20s clients=%-3d thr=%9.1f ops/s mean=%v errs=%d\n",
				p.System, p.X, p.Throughput, p.MeanLat.Round(time.Microsecond), p.Errors)
		}
	}
	return points, nil
}

// SeriesRatio computes min and max of a/b across matching X values —
// used to express "LCM achieves 0.72x-0.98x of SGX" style results.
func SeriesRatio(points []Point, a, b System) (minRatio, maxRatio float64) {
	byX := map[int]map[System]float64{}
	for _, p := range points {
		if byX[p.X] == nil {
			byX[p.X] = map[System]float64{}
		}
		byX[p.X][p.System] = p.Throughput
	}
	first := true
	for _, series := range byX {
		ta, okA := series[a]
		tb, okB := series[b]
		if !okA || !okB || tb == 0 {
			continue
		}
		r := ta / tb
		if first {
			minRatio, maxRatio = r, r
			first = false
			continue
		}
		if r < minRatio {
			minRatio = r
		}
		if r > maxRatio {
			maxRatio = r
		}
	}
	return minRatio, maxRatio
}
