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

func TestRunBatchAblationSmoke(t *testing.T) {
	cfg := quickCfg(t)
	points, err := RunBatchAblation(cfg, []int{1, 8})
	if err != nil {
		t.Fatalf("RunBatchAblation: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
}

func TestRunTMCSmoke(t *testing.T) {
	cfg := quickCfg(t)
	cfg.Clients = []int{1}
	cfg.Duration = 300 * time.Millisecond
	points, err := RunTMC(cfg)
	if err != nil {
		t.Fatalf("RunTMC: %v", err)
	}
	var tmcThr, lcmThr float64
	for _, p := range points {
		switch p.System {
		case SysSGXTMC:
			tmcThr = p.Throughput
		case SysLCMBatch:
			lcmThr = p.Throughput
		}
	}
	// Even at 0.05 scale (3ms TMC increments) the counter-bound system
	// must be far slower than LCM with batching.
	if tmcThr <= 0 || lcmThr <= 0 {
		t.Fatalf("throughputs: tmc=%f lcm=%f", tmcThr, lcmThr)
	}
	if lcmThr < 2*tmcThr {
		t.Fatalf("LCM (%f) not meaningfully faster than TMC (%f)", lcmThr, tmcThr)
	}
}

func TestRunSyncWritesAblationSmoke(t *testing.T) {
	cfg := quickCfg(t)
	cfg.Scale = 0.2 // keep the fsync latency visible so grouping matters
	cfg.Duration = 400 * time.Millisecond
	points, err := RunSyncWritesAblation(cfg, []int{8})
	if err != nil {
		t.Fatalf("RunSyncWritesAblation: %v", err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d, want 3 arms", len(points))
	}
	byName := map[string]AblationPoint{}
	for _, p := range points {
		if p.Throughput <= 0 {
			t.Fatalf("%s produced no throughput", p.Name)
		}
		byName[p.Name] = p
	}
	// Counted, not timed: at batch 1 per-batch fsync covers one record
	// per fsync, and group commit must cover at least 1.5 (the full-
	// fidelity run shows ≥3x the throughput).
	group, perBatch := byName["lcm-sync-delta-group"], byName["lcm-sync-delta-fsync"]
	if perBatch.AvgGroup != 1 {
		t.Fatalf("per-batch fsync covered %.2f records per fsync, want 1", perBatch.AvgGroup)
	}
	if group.AvgGroup < 1.5 {
		t.Fatalf("group commit covered %.2f records per fsync, want ≥ 1.5", group.AvgGroup)
	}
}

func TestRunSealAblationSmoke(t *testing.T) {
	cfg := quickCfg(t)
	points, err := RunSealAblation(cfg, []int{200})
	if err != nil {
		t.Fatalf("RunSealAblation: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2 (full + delta)", len(points))
	}
	for _, p := range points {
		if p.Throughput <= 0 {
			t.Fatalf("%s produced no throughput", p.Name)
		}
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

func TestRunShardAblationSmoke(t *testing.T) {
	cfg := quickCfg(t)
	points, err := RunShardAblation(cfg, []int{1, 2}, []int{4})
	if err != nil {
		t.Fatalf("RunShardAblation: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	for _, p := range points {
		if p.Throughput <= 0 {
			t.Fatalf("%s produced no throughput", p.Name)
		}
	}
}

func TestRunBatchGroupSweepSmoke(t *testing.T) {
	cfg := quickCfg(t)
	cfg.Scale = 0.2 // keep the fsync latency visible so the arms differ
	cfg.Duration = 300 * time.Millisecond
	points, err := RunBatchGroupSweep(cfg, []int{1, 8})
	if err != nil {
		t.Fatalf("RunBatchGroupSweep: %v", err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4 (2 batches x 2 arms)", len(points))
	}
	byName := map[string]AblationPoint{}
	for _, p := range points {
		if p.Throughput <= 0 {
			t.Fatalf("%s produced no throughput", p.Name)
		}
		byName[p.Name] = p
	}
	// At batch 1 the committer is the only fsync amortizer: counted, the
	// group arm covers at least 1.2 records per fsync where plain sync
	// covers one (the full-scale throughput margin is >=3x).
	if g, p := byName["lcm-batch1-group"], byName["lcm-batch1-sync"]; p.AvgGroup != 1 || g.AvgGroup < 1.2 {
		t.Fatalf("records per fsync at batch 1: group commit %.2f (want ≥ 1.2), plain sync %.2f (want 1)", g.AvgGroup, p.AvgGroup)
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

func TestRunReplicationAblationSmoke(t *testing.T) {
	cfg := quickCfg(t)
	points, err := RunReplicationAblation(cfg, []int{2}, []int{4}, false)
	if err != nil {
		t.Fatalf("RunReplicationAblation: %v", err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2 (off + q2)", len(points))
	}
	byName := map[string]AblationPoint{}
	for _, p := range points {
		if p.Throughput <= 0 {
			t.Fatalf("%s produced no throughput", p.Name)
		}
		byName[p.Name] = p
	}
	if _, ok := byName["lcm-repl-off"]; !ok {
		t.Fatal("missing unreplicated arm")
	}
	if _, ok := byName["lcm-repl-q2"]; !ok {
		t.Fatal("missing quorum-2 arm")
	}
}

func TestDeployReplicatedLCM(t *testing.T) {
	dep, err := Deploy(SysLCM, Options{
		Model:    latency.Scaled(0.01),
		Dir:      t.TempDir(),
		Clients:  4,
		Replicas: 2,
		Quorum:   2,
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
