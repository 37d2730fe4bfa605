package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var testDecl = &decl{
	Workloads: []workload{{"w1"}, {"w2"}},
	EndToEnd: []metric{
		{Name: "bytes", Unit: "B/op", Better: "lower", Bound: 0.05},
		{Name: "ops", Unit: "ops/s", Better: "higher", Bound: 0.25},
	},
}

// around returns n values spread ±spread around v.
func around(v, spread float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v * (1 + spread*(float64(i)/float64(n-1)*2-1))
	}
	return xs
}

// Synthetic pairs reach each verdict, in both directions of "better".
func TestVerdicts(t *testing.T) {
	lower, higher := testDecl.EndToEnd[0], testDecl.EndToEnd[1]
	for _, tc := range []struct {
		name           string
		m              metric
		parent, change []float64
		want           string
		wins           int
	}{
		{"bytes halve", lower, around(500, 0.01, 10), around(270, 0.01, 10), "gain", 10},
		{"ops rise", higher, around(1000, 0.02, 10), around(1200, 0.02, 10), "gain", 10},
		{"bytes hold", lower, around(500, 0.01, 10), around(501, 0.01, 10), "within bound", 0},
		{"bytes grow 10 %", lower, around(500, 0.01, 10), around(550, 0.01, 10), "worse", 0},
		{"ops fall 30 %", higher, around(1000, 0.02, 10), around(700, 0.02, 10), "worse", 0},
		{"ops spread 60 %", higher, around(1000, 0.6, 10), around(1000, 0.6, 10), "unresolved", 0},
		// 8 wins in 10: better, but not a gain.
		{"8 of 10", lower, around(500, 0.001, 10), append(around(499, 0.001, 8), 501, 501), "within bound", 8},
	} {
		got, wins := verdict(tc.m, tc.parent, tc.change)
		if got != tc.want || wins != tc.wins && tc.wins > 0 {
			t.Errorf("%s: %s with %d wins, want %s with %d", tc.name, got, wins, tc.want, tc.wins)
		}
	}
}

// Run files pair by name; the workload comes from the title line or the
// file name; the table prints one row per workload and metric.
func TestCompareDirectories(t *testing.T) {
	dirs := [2]string{t.TempDir(), t.TempDir()}
	line := func(correct bool, bytes, ops float64) string {
		return fmt.Sprintf(`{"correct":%v,"attempted":10,"failed":0,"metrics":{"bytes":{"value":%g,"unit":"B/op"},"ops":{"value":%g,"unit":"ops/s"}}}`, correct, bytes, ops)
	}
	for i := 0; i < 10; i++ {
		for side, bytes := range []float64{500, 270} {
			out := fmt.Sprintf("w1 seed=%d trace=0  attempted=10 failed=0\n  bytes 1 B/op\n%s\n", i, line(true, bytes+float64(i), 1000))
			if err := os.WriteFile(filepath.Join(dirs[side], fmt.Sprintf("run.%02d.out", i)), []byte(out), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dirs[side], fmt.Sprintf("w2.%02d", i)), []byte(line(side == 0, 100, 1000)), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var b strings.Builder
	if err := compare(&b, testDecl, dirs[0], dirs[1]); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"w1                bytes", "-45.", "10/10  gain", "w2                ops", "0/10  within bound", "w2                10 of 10 pairs hold a run that failed the oracle"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// -history prints a column per report and "-" where a report lacks the
// metric.
func TestHistory(t *testing.T) {
	dir := t.TempDir()
	for name, bytes := range map[string]string{"0001": `{"name":"bytes","value":500}`, "0002": `{"name":"ops","value":900}`} {
		report := fmt.Sprintf(`{"workloads":[{"name":"w1","end_to_end":[%s]}]}`, bytes)
		if err := os.WriteFile(filepath.Join(dir, name+".json"), []byte(report), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	if err := printHistory(&b, testDecl, dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"0001        0002", "bytes                     500.0           -", "ops                           -       900.0"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("history lacks %q:\n%s", want, b.String())
		}
	}
}
