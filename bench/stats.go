package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile
// (choosing-metrics guide: "the highest percentile that has at least ten
// samples beyond it").
const minBeyond = 10

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quantile returns the q-quantile (nearest rank) of an ascending sample.
// supported reports whether at least minBeyond samples lie above the
// returned value's rank; when they do not, the rank is lowered to the
// highest one that satisfies the guard (the median at the lowest), so a
// caller that prints the value alongside supported=false is printing the
// highest percentile the sample can actually back.
func quantile(sorted []float64, q float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank > n-1 {
		rank = n - 1
	}
	supported = n-1-rank >= minBeyond
	if !supported {
		if guarded := n - 1 - minBeyond; guarded > n/2 {
			rank = guarded
		} else {
			rank = n / 2
		}
	}
	return sorted[rank], supported
}

// subWindowQuantile computes the q-quantile inside each sub-window and
// returns the median of those values together with the total sample
// count and whether every sub-window met the minBeyond guard. One stall
// on the shared machine then moves one sub-window's value, not the
// reported one.
func subWindowQuantile(subs [][]float64, q float64) (v float64, n int, supported bool) {
	supported = true
	vals := make([]float64, 0, len(subs))
	for _, sub := range subs {
		n += len(sub)
		if len(sub) == 0 {
			supported = false
			continue
		}
		s := append([]float64(nil), sub...)
		sort.Float64s(s)
		x, ok := quantile(s, q)
		supported = supported && ok
		vals = append(vals, x)
	}
	return median(vals), n, supported
}

// interval is a half-open time span [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// unionLength returns the total length covered by the intervals, counting
// overlapping stretches once, after clipping every interval to
// [lo, hi). The slice is reordered.
func unionLength(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
	var total int64
	covered := lo
	for _, iv := range ivs {
		s, e := iv.start, iv.end
		if s < covered {
			s = covered
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			covered = e
		}
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover;
// children may overlap each other and may stick out of the parent.
func selfTime(parent interval, children []interval) int64 {
	return (parent.end - parent.start) - unionLength(children, parent.start, parent.end)
}

// counters is a named set of monotonically increasing counts, sampled at
// the start and at the end of a measured window.
type counters map[string]float64

// delta returns end-start per counter, so that work done before the
// window (deploy, bootstrap, load, warm-up) is excluded. A counter absent
// at the start counts from zero.
func (end counters) delta(start counters) counters {
	d := make(counters, len(end))
	for k, v := range end {
		d[k] = v - start[k]
	}
	return d
}

// ratio is a/b, 0 when b is 0 — for per-op shares of layers a workload
// never enters.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
