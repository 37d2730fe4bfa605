// Command lcm-bench regenerates the paper's evaluation (Sec. 6): every
// figure and in-text measurement, against the simulated TEE substrate,
// plus the two protocol-shape ablations bench/ cannot express (live
// reshard pause, clone-detection latency).
//
// Usage:
//
//	lcm-bench -experiment fig4|fig5|fig6|memory|msgsize|tmc|reshardablation|cloneablation|all \
//	          [-duration 2s] [-scale 1.0] [-records 1000] [-seed 42] \
//	          [-latencymodel spin|sleep] [-jsonOut path]
//
// -jsonOut writes the ablations' measured points as JSON.
//
// The paper measures each data point over 30 s; the default window here is
// 2 s so a full figure regenerates in minutes. Use -duration 30s for a
// paper-faithful run. Absolute numbers depend on the simulation's latency
// model (internal/latency); the claimed reproduction is the *shape* of
// each figure.
//
// -latencymodel sleep makes every injected charge a timer sleep instead of
// a sub-100µs busy-wait: charged enclave time then overlaps across shard
// instances regardless of the host's core count, so the reshard
// ablation's shard scaling is measurable even on a single-core CI runner
// (at the cost of per-charge timing precision).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"lcm/internal/benchrun"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lcm-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		experiment = flag.String("experiment", "all", "fig4|fig5|fig6|memory|msgsize|tmc|reshardablation|cloneablation|all")
		duration   = flag.Duration("duration", 2*time.Second, "measurement window per data point (paper: 30s)")
		scale      = flag.Float64("scale", 1.0, "latency model scale factor (1.0 = full fidelity, 0 = off)")
		records    = flag.Int("records", 1000, "object count (paper: 1000)")
		seed       = flag.Int64("seed", 42, "workload seed")
		latModel   = flag.String("latencymodel", "spin", "spin (precise, needs one core per enclave) | sleep (overlaps on any core count)")
		jsonOut    = flag.String("jsonOut", "", "write measured ablation points as JSON to this path")
	)
	flag.Parse()
	if *latModel != "spin" && *latModel != "sleep" {
		return fmt.Errorf("unknown -latencymodel %q (want spin or sleep)", *latModel)
	}

	dir, err := os.MkdirTemp("", "lcm-bench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := benchrun.RunConfig{
		Duration: *duration,
		Scale:    *scale,
		SleepAll: *latModel == "sleep",
		Records:  *records,
		Seed:     *seed,
		Dir:      dir,
		Out:      os.Stdout,
	}

	// measured collects ablation series for the optional JSON artifact.
	measured := map[string][]benchrun.AblationPoint{}

	runOne := func(name string) error {
		switch name {
		case "fig4":
			points, err := benchrun.RunFig4(cfg)
			if err != nil {
				return err
			}
			lo, hi := ratioBySize(points)
			fmt.Printf("LCM/SGX throughput ratio: %.2fx - %.2fx (paper: 0.80x - 0.89x)\n\n", lo, hi)
		case "fig5":
			points, err := benchrun.RunFig5(cfg)
			if err != nil {
				return err
			}
			printRatios(points)
		case "fig6":
			points, err := benchrun.RunFig6(cfg)
			if err != nil {
				return err
			}
			printRatios(points)
		case "memory":
			_, err := benchrun.RunMemory(benchrun.MemoryConfig{Scale: *scale}, func(s string) {
				fmt.Println(s)
			})
			if err != nil {
				return err
			}
			fmt.Println("paper: ~93MB at 300k objects, +240% latency past the EPC limit")
			fmt.Println()
		case "msgsize":
			fmt.Println("# Sec. 6.3 — protocol message overhead (constant in object size)")
			for _, row := range benchrun.RunMsgSize(nil) {
				fmt.Printf("object=%-5dB op=%-5dB +invoke=%dB +reply=%dB\n",
					row.ObjectSize, row.PlainOpBytes, row.InvokeOverhead, row.ReplyOverhead)
			}
			fmt.Println("paper: +45B per invocation, +46B per result (our reply carries the full [t,h,q,h'c]: 80B)")
			fmt.Println()
		case "tmc":
			if _, err := benchrun.RunTMC(cfg); err != nil {
				return err
			}
			fmt.Println("paper: TMC ≈ 12 ops/s constant; LCM with batching 96x - 2063x faster")
			fmt.Println()
		case "reshardablation":
			points, err := benchrun.RunReshardAblation(cfg, 2, 4, 8)
			if err != nil {
				return err
			}
			measured["reshardAblation"] = points
			fmt.Println("a live reshard pauses for the freeze window; throughput recovers on the wider deployment")
			fmt.Println()
		case "cloneablation":
			points, err := benchrun.RunCloneAblation(cfg, nil)
			if err != nil {
				return err
			}
			measured["cloneAblation"] = points
			fmt.Println("beacons buy bounded clone detection; at the default interval the heartbeat costs <3% throughput")
			fmt.Println()
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	runAll := func() error {
		if *experiment == "all" {
			for _, name := range []string{"msgsize", "fig4", "fig5", "fig6", "memory", "tmc", "reshardablation", "cloneablation"} {
				if err := runOne(name); err != nil {
					return err
				}
			}
			return nil
		}
		return runOne(*experiment)
	}
	if err := runAll(); err != nil {
		return err
	}
	if *jsonOut != "" {
		report := struct {
			Experiment string
			Duration   string
			Scale      float64
			Records    int
			Series     map[string][]benchrun.AblationPoint
		}{*experiment, duration.String(), *scale, *records, measured}
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", *jsonOut, err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
	return nil
}

func ratioBySize(points []benchrun.Point) (lo, hi float64) {
	return benchrun.SeriesRatio(points, benchrun.SysLCMBatch, benchrun.SysSGXBatch)
}

func printRatios(points []benchrun.Point) {
	sgxNative := func() {
		lo, hi := benchrun.SeriesRatio(points, benchrun.SysSGX, benchrun.SysNative)
		fmt.Printf("SGX/Native ratio:        %.2fx - %.2fx (paper Fig.5: 0.42x - 0.78x)\n", lo, hi)
	}
	lcmSGX := func() {
		lo, hi := benchrun.SeriesRatio(points, benchrun.SysLCM, benchrun.SysSGX)
		fmt.Printf("LCM/SGX ratio:           %.2fx - %.2fx (paper Fig.5: 0.67x - 0.95x)\n", lo, hi)
	}
	lcmSGXBatch := func() {
		lo, hi := benchrun.SeriesRatio(points, benchrun.SysLCMBatch, benchrun.SysSGXBatch)
		fmt.Printf("LCM+batch/SGX+batch:     %.2fx - %.2fx (paper Fig.5: 0.72x - 0.98x)\n", lo, hi)
	}
	sgxNative()
	lcmSGX()
	lcmSGXBatch()
	fmt.Println()
}
