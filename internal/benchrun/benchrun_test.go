package benchrun

import (
	"fmt"
	"io"
	"testing"
	"time"

	"lcm/internal/latency"
)

// quickCfg runs each point for a fraction of a second with latencies
// scaled down, keeping the full-matrix smoke tests fast while still
// exercising every deployment path.
func quickCfg(t *testing.T) RunConfig {
	t.Helper()
	return RunConfig{
		Duration: 150 * time.Millisecond,
		Scale:    0.05,
		Clients:  []int{1, 4},
		Sizes:    []int{100, 1000},
		Records:  50,
		Dir:      t.TempDir(),
		Out:      io.Discard,
	}
}

func TestDeployAllSystems(t *testing.T) {
	for _, sys := range AllSystems() {
		t.Run(string(sys), func(t *testing.T) {
			dep, err := Deploy(sys, Options{
				Model:   latency.Scaled(0.01),
				Dir:     t.TempDir(),
				Clients: 4,
			})
			if err != nil {
				t.Fatalf("Deploy: %v", err)
			}
			defer dep.Close()
			s, err := dep.NewSession()
			if err != nil {
				t.Fatalf("NewSession: %v", err)
			}
			defer s.Close()
			if err := s.Put("k", "v"); err != nil {
				t.Fatalf("Put: %v", err)
			}
			v, found, err := s.Get("k")
			if err != nil || !found || string(v) != "v" {
				t.Fatalf("Get = %q %v %v", v, found, err)
			}
		})
	}
}

func TestRunFig4Smoke(t *testing.T) {
	points, err := RunFig4(quickCfg(t))
	if err != nil {
		t.Fatalf("RunFig4: %v", err)
	}
	// 2 systems × 2 sizes.
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	for _, p := range points {
		if p.Errors > 0 {
			t.Fatalf("%s size=%d reported %d errors", p.System, p.X, p.Errors)
		}
		if p.Throughput <= 0 {
			t.Fatalf("%s size=%d throughput = %f", p.System, p.X, p.Throughput)
		}
	}
}

func TestRunFig5Smoke(t *testing.T) {
	cfg := quickCfg(t)
	cfg.Clients = []int{2}
	points, err := RunFig5(cfg)
	if err != nil {
		t.Fatalf("RunFig5: %v", err)
	}
	if len(points) != len(AllSystems()) {
		t.Fatalf("points = %d, want %d", len(points), len(AllSystems()))
	}
	for _, p := range points {
		if p.Errors > 0 {
			t.Fatalf("%s reported %d errors", p.System, p.Errors)
		}
	}
}

func TestRunFig6Smoke(t *testing.T) {
	cfg := quickCfg(t)
	cfg.Clients = []int{2}
	// Keep only the systems with distinct sync-write paths to stay fast.
	points, err := runClientSweep(cfg, true, []System{SysNative, SysRedis, SysLCM, SysLCMBatch})
	if err != nil {
		t.Fatalf("sync sweep: %v", err)
	}
	for _, p := range points {
		if p.Errors > 0 {
			t.Fatalf("%s reported %d errors", p.System, p.Errors)
		}
	}
}

func TestSeriesRatio(t *testing.T) {
	points := []Point{
		{System: SysLCM, X: 1, Throughput: 80},
		{System: SysSGX, X: 1, Throughput: 100},
		{System: SysLCM, X: 2, Throughput: 95},
		{System: SysSGX, X: 2, Throughput: 100},
	}
	lo, hi := SeriesRatio(points, SysLCM, SysSGX)
	if lo != 0.8 || hi != 0.95 {
		t.Fatalf("SeriesRatio = %f..%f, want 0.8..0.95", lo, hi)
	}
}

func TestRunMemorySmoke(t *testing.T) {
	points, err := RunMemory(MemoryConfig{
		Steps:         []int{200, 400, 800},
		EPCLimitBytes: 100 << 10, // 100 KiB: the knee lands inside the sweep
		ProbeOps:      50,
		Scale:         1.0,
	}, nil)
	if err != nil {
		t.Fatalf("RunMemory: %v", err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Resident size must grow monotonically...
	for i := 1; i < len(points); i++ {
		if points[i].ResidentMB <= points[i-1].ResidentMB {
			t.Fatalf("resident did not grow: %+v", points)
		}
	}
	// ...and the last point must be past the EPC with visibly higher
	// latency (the Sec. 6.2 knee), as the latency model charged it: the
	// charge is fixed by the ops, where the wall clock is not.
	last := points[len(points)-1]
	if !last.PastEPC {
		t.Fatalf("sweep never crossed the EPC limit: %+v", last)
	}
	if last.ChargedGain < 1.2 {
		t.Fatalf("charged latency gain past EPC = %.2fx, want visible paging penalty", last.ChargedGain)
	}
}

func TestRunMsgSize(t *testing.T) {
	rows := RunMsgSize(nil)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.InvokeOverhead != 45 {
			t.Fatalf("invoke overhead = %d, want 45 (Sec. 6.3)", r.InvokeOverhead)
		}
		if r.ReplyOverhead != rows[0].ReplyOverhead {
			t.Fatal("reply overhead varies with object size")
		}
	}
}

// The Sec. 6.5 gap, as the latency model charged it: every SGX+TMC op
// pays a counter increment, and LCM with batching pays a small fraction
// of one. The charge is fixed by the ops, where throughput is not.
func TestRunTMCSmoke(t *testing.T) {
	cfg := quickCfg(t)
	cfg.Clients = []int{1}
	cfg.Duration = 300 * time.Millisecond
	points, err := RunTMC(cfg)
	if err != nil {
		t.Fatalf("RunTMC: %v", err)
	}
	bySys := map[System]Point{}
	for _, p := range points {
		if p.Errors > 0 || p.Ops == 0 {
			t.Fatalf("%s: %d ops, %d errors", p.System, p.Ops, p.Errors)
		}
		bySys[p.System] = p
	}
	t.Logf("charged per op: SGX+TMC %v, LCM with batching %v", bySys[SysSGXTMC].ChargedPerOp, bySys[SysLCMBatch].ChargedPerOp)
	increment := time.Duration(cfg.Scale * float64(latency.DefaultTMCIncrement))
	if got := bySys[SysSGXTMC].ChargedPerOp; got < increment {
		t.Fatalf("SGX+TMC charged %v per op, want ≥ one counter increment (%v)", got, increment)
	}
	if got := bySys[SysLCMBatch].ChargedPerOp; got <= 0 || got >= increment/2 {
		t.Fatalf("LCM with batching charged %v per op, want in (0, %v)", got, increment/2)
	}
}

func TestDeployShardedLCM(t *testing.T) {
	dep, err := Deploy(SysLCM, Options{
		Model:   latency.Scaled(0.01),
		Dir:     t.TempDir(),
		Clients: 4,
		Shards:  4,
	})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	defer dep.Close()
	s, err := dep.NewSession()
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	// Keys spread across shards; every one must round-trip.
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("key-%d", i)
		if err := s.Put(k, "v"); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
		v, found, err := s.Get(k)
		if err != nil || !found || string(v) != "v" {
			t.Fatalf("Get %s = %q %v %v", k, v, found, err)
		}
	}
	// Traffic must actually have been partitioned.
	ds, err := dep.host.DeploymentStatus()
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	for _, sh := range ds.Shards {
		if sh.Status.Seq > 0 {
			active++
		}
	}
	if active < 2 {
		t.Fatalf("only %d shards saw traffic; keyspace not partitioned", active)
	}
}

func TestRunReshardAblationSmoke(t *testing.T) {
	cfg := quickCfg(t)
	cfg.Duration = 300 * time.Millisecond
	points, err := RunReshardAblation(cfg, 2, 4, 4)
	if err != nil {
		t.Fatalf("RunReshardAblation: %v", err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3 (pre, post, pause)", len(points))
	}
	byName := map[string]AblationPoint{}
	for _, p := range points {
		byName[p.Name] = p
	}
	if byName["lcm-reshard2to4-pre"].Throughput <= 0 {
		t.Fatal("no pre-reshard throughput")
	}
	if byName["lcm-reshard2to4-post"].Throughput <= 0 {
		t.Fatal("no post-reshard throughput — clients never recovered")
	}
	if byName["lcm-reshard2to4-pause"].MeanLat <= 0 {
		t.Fatal("no pause recorded")
	}
}

func TestRunCloneAblationSmoke(t *testing.T) {
	cfg := quickCfg(t)
	points, err := RunCloneAblation(cfg, []time.Duration{50 * time.Millisecond})
	if err != nil {
		t.Fatalf("RunCloneAblation: %v", err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3 (beacons off, beacons on, detection)", len(points))
	}
	byName := map[string]AblationPoint{}
	for _, p := range points {
		byName[p.Name] = p
	}
	if byName["lcm-beacon-off"].Throughput <= 0 || byName["lcm-beacon"].Throughput <= 0 {
		t.Fatalf("no throughput: %+v", points)
	}
	if byName["lcm-clone-detect"].MeanLat <= 0 {
		t.Fatal("no detection latency recorded")
	}
}

// Scale 0 turns the latency model off, as lcm-server -scale 0 does: the
// filled configs keep it, and the model a run builds charges nothing.
func TestScaleZeroChargesNothing(t *testing.T) {
	if s := (MemoryConfig{}).fill().Scale; s != 0 {
		t.Fatalf("MemoryConfig{}.fill().Scale = %v, want 0", s)
	}
	m := RunConfig{}.fill().model()
	m.WaitTMC() // 60 ms at scale 1
	m.WaitSyncWrite()
	if d := m.Charged(); d != 0 {
		t.Fatalf("a Scale 0 model charged %v for a counter increment and an fsync", d)
	}
}
