// Command benchdiff compares two sets of benchmark runs, parent and
// change, the way bench/README.md's "Comparing two commits" judges them.
//
//	go run ./tools/benchdiff [-benchmark BENCHMARK.json] <parent-dir> <change-dir>
//	go run ./tools/benchdiff -history BENCH_history
//
// Each directory holds one file per run: the standard output of
// bench/run.sh --workload <name> (its title line names the workload, its
// last JSON line is the result object), or just that JSON line in a file
// whose name starts with "<workload>.". A run in one directory pairs with
// the file of the same name in the other.
//
// For each workload and end-to-end metric of BENCHMARK.json (read only)
// it prints both medians with their quartiles, the change in per cent,
// the pairs the change wins in the metric's "better" direction, and a
// verdict:
//
//	gain          the change wins at least 9 pairs in 10 and its median
//	              is better by more than the parent's inter-quartile range
//	worse         the median is worse by more than the metric's bound
//	unresolved    either side's inter-quartile range, relative to its
//	              median, exceeds the bound: the runs cannot tell
//	within bound  none of these
//
// With -history it prints each end-to-end metric's value in every report
// of the directory (bench's -out JSON, in file name order) instead.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

func main() {
	benchmark := flag.String("benchmark", "BENCHMARK.json", "the benchmark declaration: workloads, end-to-end metrics, directions and bounds")
	history := flag.String("history", "", "print every end-to-end metric's trajectory over the reports in this directory")
	flag.Parse()
	decl, err := readDecl(*benchmark)
	if err == nil {
		if *history != "" {
			err = printHistory(os.Stdout, decl, *history)
		} else if flag.NArg() != 2 {
			err = errors.New("usage: benchdiff [-benchmark BENCHMARK.json] <parent-dir> <change-dir>")
		} else {
			err = compare(os.Stdout, decl, flag.Arg(0), flag.Arg(1))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

// decl is what benchdiff reads of BENCHMARK.json.
type decl struct {
	Workloads []workload `json:"workloads"`
	EndToEnd  []metric   `json:"end_to_end"`
}

type workload struct {
	Name string `json:"name"`
}

type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // relative
}

func readDecl(path string) (*decl, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d decl
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// run is one run's result: its workload, whether the oracle passed, and
// its metric values.
type run struct {
	workload string
	correct  bool
	metrics  map[string]float64
}

// readRuns reads every run file in dir, by file name.
func readRuns(d *decl, dir string) (map[string]run, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	runs := map[string]run{}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		r, err := parseRun(d, e.Name(), b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Join(dir, e.Name()), err)
		}
		if r.workload != "" {
			runs[e.Name()] = r
		}
	}
	return runs, nil
}

// parseRun reads a run from its output; a file with no result line is
// skipped (workload "").
func parseRun(d *decl, name string, b []byte) (run, error) {
	var r run
	var result []byte
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "{") {
			result = []byte(line)
		} else if f := strings.Fields(line); len(f) > 0 && r.workload == "" && d.isWorkload(f[0]) {
			r.workload = f[0]
		}
	}
	if err := sc.Err(); err != nil || result == nil {
		return run{}, err
	}
	if w, _, _ := strings.Cut(name, "."); r.workload == "" && d.isWorkload(w) {
		r.workload = w
	}
	if r.workload == "" {
		return run{}, errors.New("no workload named by the title line or the file name")
	}
	var obj struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(result, &obj); err != nil {
		return run{}, err
	}
	r.correct, r.metrics = obj.Correct, map[string]float64{}
	for k, v := range obj.Metrics {
		r.metrics[k] = v.Value
	}
	return r, nil
}

func (d *decl) isWorkload(name string) bool { return slices.Contains(d.Workloads, workload{name}) }

// stats are a sample's quartiles.
type stats struct{ q1, median, q3 float64 }

// quartiles of xs, by linear interpolation between order statistics.
func quartiles(xs []float64) stats {
	s := slices.Sorted(slices.Values(xs))
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(math.Floor(pos))
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return stats{at(0.25), at(0.5), at(0.75)}
}

// verdict judges one metric of one workload over pairs of (parent,
// change) values.
func verdict(m metric, parent, change []float64) (string, int) {
	wins := 0
	for i := range parent {
		if m.Better == "higher" && change[i] > parent[i] || m.Better != "higher" && change[i] < parent[i] {
			wins++
		}
	}
	p, c := quartiles(parent), quartiles(change)
	gain := c.median - p.median // positive: better
	if m.Better != "higher" {
		gain = -gain
	}
	spread := func(s stats) float64 { return (s.q3 - s.q1) / math.Abs(s.median) }
	switch {
	case len(parent) > 0 && 10*wins >= 9*len(parent) && gain > p.q3-p.q1:
		return "gain", wins
	case -gain > m.Bound*math.Abs(p.median):
		return "worse", wins
	case spread(p) > m.Bound || spread(c) > m.Bound:
		return "unresolved", wins
	default:
		return "within bound", wins
	}
}

// num formats v with four significant digits, without an exponent.
func num(v float64) string {
	if v == 0 {
		return "0"
	}
	return strconv.FormatFloat(v, 'f', max(3-int(math.Floor(math.Log10(math.Abs(v)))), 0), 64)
}

// compare prints the table for the runs of parentDir and changeDir.
func compare(out io.Writer, d *decl, parentDir, changeDir string) error {
	parents, err := readRuns(d, parentDir)
	if err != nil {
		return err
	}
	changes, err := readRuns(d, changeDir)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-17s %-19s %-30s %-30s %8s %6s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "Δ %", "wins", "verdict")
	for _, w := range d.Workloads {
		var names []string
		incorrect := 0
		for name, p := range parents {
			if c, ok := changes[name]; ok && p.workload == w.Name && c.workload == w.Name {
				names = append(names, name)
				if !p.correct || !c.correct {
					incorrect++
				}
			}
		}
		if len(names) == 0 {
			continue
		}
		slices.Sort(names)
		for _, m := range d.EndToEnd {
			var pv, cv []float64
			for _, name := range names {
				p, pok := parents[name].metrics[m.Name]
				c, cok := changes[name].metrics[m.Name]
				if pok && cok {
					pv, cv = append(pv, p), append(cv, c)
				}
			}
			if len(pv) == 0 {
				continue
			}
			v, wins := verdict(m, pv, cv)
			p, c := quartiles(pv), quartiles(cv)
			fmt.Fprintf(out, "%-17s %-19s %-30s %-30s %+7.1f%% %3d/%-2d  %s\n", w.Name, m.Name,
				fmt.Sprintf("%s [%s, %s]", num(p.median), num(p.q1), num(p.q3)),
				fmt.Sprintf("%s [%s, %s]", num(c.median), num(c.q1), num(c.q3)),
				100*(c.median-p.median)/math.Abs(p.median), wins, len(pv), v)
		}
		if incorrect > 0 {
			fmt.Fprintf(out, "%-17s %d of %d pairs hold a run that failed the oracle\n", w.Name, incorrect, len(names))
		}
	}
	return nil
}

// printHistory prints each workload's end-to-end metrics across the
// reports in dir, one column per report.
func printHistory(out io.Writer, d *decl, dir string) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return err
	}
	slices.Sort(files)
	type report struct {
		Workloads []struct {
			Name     string `json:"name"`
			EndToEnd []struct {
				Name  string  `json:"name"`
				Value float64 `json:"value"`
			} `json:"end_to_end"`
		} `json:"workloads"`
	}
	values := map[[2]string]map[string]float64{} // (workload, metric) → report → value
	var reports []string
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var r report
		if err := json.Unmarshal(b, &r); err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
		name := strings.TrimSuffix(filepath.Base(f), ".json")
		reports = append(reports, name)
		for _, w := range r.Workloads {
			for _, m := range w.EndToEnd {
				key := [2]string{w.Name, m.Name}
				if values[key] == nil {
					values[key] = map[string]float64{}
				}
				values[key][name] = m.Value
			}
		}
	}
	for _, w := range d.Workloads {
		fmt.Fprintf(out, "%s\n  %-19s", w.Name, "metric")
		for _, r := range reports {
			fmt.Fprintf(out, " %11s", r)
		}
		fmt.Fprintln(out)
		for _, m := range d.EndToEnd {
			fmt.Fprintf(out, "  %-19s", m.Name)
			for _, r := range reports {
				if v, ok := values[[2]string{w.Name, m.Name}][r]; ok {
					fmt.Fprintf(out, " %11s", num(v))
				} else {
					fmt.Fprintf(out, " %11s", "-")
				}
			}
			fmt.Fprintln(out)
		}
	}
	return nil
}
