package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported: a p99 over 200 samples rests on two values and says
// little, so the tail is the highest percentile that ten samples exceed.
const minBeyond = 10

// tailLadder lists the candidate tail percentiles in per-mille, highest
// first: 99.9, 99.5, then every whole percent from 99 down to 50.
var tailLadder = func() []int {
	l := []int{999, 995}
	for p := 990; p >= 500; p -= 10 {
		l = append(l, p)
	}
	return l
}()

// rankOf is the 1-based nearest rank of the per-mille percentile pm over
// n samples: ceil(pm*n/1000), clamped to [1, n]. Integer arithmetic keeps
// 99% of 100 at rank 99 (0.99*100 is 99.00000000000001 in floating point).
func rankOf(pm, n int) int {
	r := (pm*n + 999) / 1000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile pm (per-mille) of sorted
// samples; NaN when there are none.
func percentile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(pm, len(sorted))-1]
}

// tail picks the highest ladder percentile with at least minBeyond samples
// ranked above it and returns its value, the percentile and the number of
// samples beyond it. With too few samples for any rung it falls back to the
// median and says so through the returned percentile and count.
func tail(sorted []float64) (value, pct float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0, 0
	}
	for _, pm := range tailLadder {
		r := rankOf(pm, n)
		if n-r >= minBeyond {
			return sorted[r-1], float64(pm) / 10, n - r
		}
	}
	r := rankOf(500, n)
	return sorted[r-1], 50, n - r
}

// tailWindow is how many consecutive operations one tail window holds, so
// that the highest percentile with minBeyond of its samples beyond it is
// the 90th.
const tailWindow = 100

// windowedTail is op_tail_ms. The operations, in the order they ended, are
// cut into consecutive windows of tailWindow (a partial last window is left
// out); each window's tail is the highest percentile with minBeyond of its
// samples beyond it, and the result is the median over the windows, with
// the percentile and count each window used. A whole-run tail rests on the
// ten slowest operations of the run, and a few seconds of interference
// from outside the benchmark moved it by half between runs of the same
// code; the median window is the tail the workload holds. A run shorter
// than one window gets the whole-run tail, and windows is 0.
func windowedTail(lat []float64) (value, pct float64, beyond, windows int) {
	k := len(lat) / tailWindow
	if k == 0 {
		v, p, b := tail(sortedCopy(lat))
		return v, p, b, 0
	}
	vals := make([]float64, k)
	for i := range vals {
		vals[i], pct, beyond = tail(sortedCopy(lat[i*tailWindow : (i+1)*tailWindow]))
	}
	return median(sortedCopy(vals)), pct, beyond, k
}

// quartiles returns the three cut points Python's
// statistics.quantiles(data, n=4) gives (its default "exclusive" method),
// so the spreads this benchmark records match the ones computed from its
// output. Fewer than two samples repeat the only value.
func quartiles(sorted []float64) [3]float64 {
	n := len(sorted)
	switch n {
	case 0:
		return [3]float64{math.NaN(), math.NaN(), math.NaN()}
	case 1:
		return [3]float64{sorted[0], sorted[0], sorted[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q
}

// summary is the per-metric spread the run record carries.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	q := quartiles(s)
	return summary{N: len(s), Median: median(s), Q1: q[0], Q3: q[2]}
}

// median of sorted samples (mean of the middle two for an even count, as
// Python's statistics.median).
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// relClose reports |a-b| <= rel*max(|a|,|b|) + abs.
func relClose(a, b, rel, abs float64) bool {
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))+abs
}
