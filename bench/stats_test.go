package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileGuard(t *testing.T) {
	// 1000 samples: p95 has 50 beyond it, p99 exactly 10, p99.9 none.
	xs := ramp(1000)
	if v, ok := quantile(xs, 0.95); v != 950 || !ok {
		t.Errorf("p95 = %v supported=%v, want 950 true", v, ok)
	}
	if v, ok := quantile(xs, 0.99); v != 990 || !ok {
		t.Errorf("p99 = %v supported=%v, want 990 true", v, ok)
	}
	// Unsupported: lowered to the highest rank with 10 samples beyond.
	if v, ok := quantile(xs, 0.999); v != 990 || ok {
		t.Errorf("p99.9 = %v supported=%v, want 990 false", v, ok)
	}
	// Too few samples for any tail: never below the median.
	if v, ok := quantile(ramp(12), 0.99); v != 7 || ok {
		t.Errorf("p99 of 12 = %v supported=%v, want 7 false", v, ok)
	}
	if v, ok := quantile(nil, 0.5); v != 0 || ok {
		t.Errorf("empty sample = %v %v", v, ok)
	}
}

func TestSubWindowQuantileAbsorbsOneStall(t *testing.T) {
	quiet := ramp(400)
	stalled := make([]float64, 400)
	for i := range stalled {
		stalled[i] = 1e6 // one sub-window hit by a disk hiccup
	}
	v, n, ok := subWindowQuantile([][]float64{quiet, quiet, stalled, quiet}, 0.5)
	if v != 200 || n != 1600 || !ok {
		t.Errorf("got %v n=%d supported=%v, want 200 1600 true", v, n, ok)
	}
	// An empty sub-window is reported, not hidden.
	if _, _, ok := subWindowQuantile([][]float64{quiet, nil, quiet, quiet}, 0.5); ok {
		t.Error("empty sub-window counted as supported")
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping", []interval{{110, 150}, {130, 170}}, 40},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"sticking out", []interval{{50, 120}, {180, 300}}, 60},
		{"outside", []interval{{0, 50}, {250, 300}}, 100},
		{"unsorted", []interval{{150, 170}, {110, 120}}, 70},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestUnionLengthClipsToWindow(t *testing.T) {
	ivs := []interval{{0, 10}, {5, 15}, {40, 60}, {90, 120}}
	if got := unionLength(ivs, 8, 100); got != 7+20+10 {
		t.Errorf("union = %d, want 37", got)
	}
}

func TestCounterDeltaExcludesLoad(t *testing.T) {
	// 1 000 single-op ecalls during the load, then 600 ops in 100 ecalls
	// inside the window: ops per ecall is 6, not 1.45.
	start := counters{"ops": 1000, "ecalls": 1000}
	end := counters{"ops": 1600, "ecalls": 1100, "compactions": 2}
	d := end.delta(start)
	if got := ratio(d["ops"], d["ecalls"]); got != 6 {
		t.Errorf("ops per ecall = %v, want 6", got)
	}
	if d["compactions"] != 2 {
		t.Errorf("counter absent at the start: delta %v, want 2", d["compactions"])
	}
	if got := ratio(d["ops"], 0); got != 0 || math.IsNaN(got) {
		t.Errorf("ratio by zero = %v, want 0", got)
	}
}
