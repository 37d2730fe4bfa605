// Command bench is the repository's benchmark: it deploys the real LCM
// serving stack in one process with the injected latency model off, drives
// it with closed-loop clients over loopback TCP, checks every reply
// against a model, and reports end-to-end metrics (timing decorators off)
// or per-layer metrics (decorators on). See README.md in this directory.
//
// All workloads, timed and traced, with a JSON report and the span file:
//
//	go run ./bench -seed 1 -out out.json
//
// One run of one workload, as BENCHMARK.json's command drives it (the last
// line of standard output is the result object):
//
//	go run ./bench --workload ycsba-async --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	out      string
	traceOut string
	tmp      string
}

func run() error {
	var o options
	var describe bool
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the result object as the last line (default: all six, timed then traced)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same operations")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window; every other phase derives from it")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = end-to-end metrics, decorators off; 1 = per-layer metrics, decorators on")
	flag.BoolVar(&o.quick, "quick", false, "300 ms windows, one set-up, oracle on: a smoke run, not a measurement")
	flag.StringVar(&o.out, "out", "", "write the full JSON report here")
	flag.StringVar(&o.traceOut, "trace-out", "", "write traced runs' spans here as JSON lines (default with -out: <out>.spans.jsonl)")
	flag.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "directory for the deployments' stable storage")
	flag.BoolVar(&describe, "describe", false, "print every workload and metric declaration, with the layer-to-end-to-end expectations, as JSON")
	flag.Parse()

	if describe {
		return printJSON(os.Stdout, struct {
			Workloads any         `json:"workloads"`
			EndToEnd  []metricDef `json:"end_to_end"`
			PerLayer  []metricDef `json:"per_layer"`
		}{describeWorkloads(), endToEnd, perLayer})
	}
	if o.seconds < 1 && !o.quick {
		return fmt.Errorf("-seconds %v: want at least 1", o.seconds)
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return err
	}
	if o.traceOut == "" && o.out != "" {
		o.traceOut = strings.TrimSuffix(o.out, ".json") + ".spans.jsonl"
	}
	if o.traceOut != "" {
		if err := os.WriteFile(o.traceOut, nil, 0o644); err != nil {
			return err
		}
	}
	if o.workload != "" {
		return runOne(o)
	}
	return runAll(o)
}

func describeWorkloads() []map[string]any {
	out := make([]map[string]any, len(workloads))
	for i, w := range workloads {
		out[i] = map[string]any{
			"name": w.name, "why": w.why, "records": w.records, "value_bytes": w.valueSize,
			"get_share": w.getFrac, "scan_share": w.scanFrac, "put_share": 1 - w.getFrac - w.scanFrac,
			"snapshot_reads": w.snapReads, "fsync_per_commit_group": w.syncWrites,
			"shards": w.shards, "replicas": w.replicas, "quorum": w.quorum,
			"load_model": "closed loop, 2 client goroutines on 2 TCP connections, injected latency 0",
		}
	}
	return out
}

func printJSON(f *os.File, v any) error {
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// measure runs one workload once, timed or traced, and completes the
// metric list from the declarations.
func measure(o options, w *workload, traced bool) (*outcome, error) {
	timed, ref, tr := timingFor(o.seconds, o.quick)
	if o.quick && w.records > quickRecords {
		small := *w
		small.records = quickRecords
		w = &small
	}
	var out *outcome
	var err error
	defs := endToEnd
	if traced {
		defs = perLayer
		out, err = tracedRun(w, o.seed, ref, tr, o.tmp)
	} else {
		out, err = timedRun(w, o.seed, timed, o.tmp)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	var complete bool
	if out.metrics, complete = withUnits(defs, out.metrics); !complete {
		return nil, fmt.Errorf("%s: reported metrics do not match the declared ones", w.name)
	}
	if traced && o.traceOut != "" {
		if err := writeSpans(o.traceOut, w.name, out.spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func printMetrics(title string, out *outcome) {
	fmt.Printf("%s  attempted=%d failed=%d\n", title, out.verdict.attempted, out.verdict.failed)
	for _, m := range out.metrics {
		note := ""
		if m.Unsupported {
			note = fmt.Sprintf("  (<%d samples beyond: lowered to the highest percentile the sample backs)", minBeyond)
		}
		fmt.Printf("  %-36s %14.4f %-6s n=%d%s\n", m.Name, m.Value, m.Unit, m.N, note)
	}
	for _, p := range out.verdict.problems {
		fmt.Printf("  ORACLE: %s\n", p)
	}
}

// runOne is the mode BENCHMARK.json's command uses.
func runOne(o options) error {
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	out, err := measure(o, w, o.trace == 1)
	if err != nil {
		return err
	}
	printMetrics(fmt.Sprintf("%s seed=%d trace=%d", w.name, o.seed, o.trace), out)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(out.metrics))
	for _, m := range out.metrics {
		metrics[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.verdict.failed == 0, out.verdict.attempted, out.verdict.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if out.verdict.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed the oracle", w.name, out.verdict.failed, out.verdict.attempted)
	}
	return nil
}

// runAll runs every workload timed, then traced, and writes the report.
func runAll(o options) error {
	type workloadReport struct {
		Name      string   `json:"name"`
		Why       string   `json:"why"`
		Attempted int      `json:"attempted"`
		Failed    int      `json:"failed"`
		FailRatio float64  `json:"fail_ratio"`
		Problems  []string `json:"problems,omitempty"`
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	report := struct {
		Seed      int64            `json:"seed"`
		Seconds   float64          `json:"seconds"`
		Quick     bool             `json:"quick"`
		Workloads []workloadReport `json:"workloads"`
	}{Seed: o.seed, Seconds: o.seconds, Quick: o.quick}
	failed := 0
	for i := range workloads {
		w := &workloads[i]
		timed, err := measure(o, w, false)
		if err != nil {
			return err
		}
		printMetrics(w.name+" end-to-end", timed)
		traced, err := measure(o, w, true)
		if err != nil {
			return err
		}
		printMetrics(w.name+" per-layer", traced)
		r := workloadReport{Name: w.name, Why: w.why, EndToEnd: timed.metrics, PerLayer: traced.metrics,
			Attempted: timed.verdict.attempted + traced.verdict.attempted,
			Failed:    timed.verdict.failed + traced.verdict.failed,
			Problems:  append(timed.verdict.problems, traced.verdict.problems...)}
		r.FailRatio = ratio(float64(r.Failed), float64(r.Attempted))
		failed += r.Failed
		report.Workloads = append(report.Workloads, r)
	}
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		if err := printJSON(f, report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed the oracle", failed)
	}
	return nil
}
