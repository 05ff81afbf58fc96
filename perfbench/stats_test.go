package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := seq(100)
	cases := []struct {
		pm   int
		want float64
	}{
		{500, 50}, {900, 90}, {990, 99}, {999, 100}, {1000, 100}, {1, 1},
	}
	for _, c := range cases {
		if got := percentile(xs, c.pm); got != c.want {
			t.Errorf("p%.1f of 1..100 = %v, want %v", float64(c.pm)/10, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 990); got != 7 {
		t.Errorf("p99 of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 500)) {
		t.Error("percentile of no samples is not NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values
// statistics.quantiles(data, n=4) prints for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{seq(10), [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1.25, 3.5}, [3]float64{0.6875, 2.375, 4.0625}},
		{seq(5), [3]float64{1.5, 3, 4.5}},
		{[]float64{0.5, 2.25, 4, 4, 7, 9}, [3]float64{1.8125, 4, 7.5}},
	}
	for _, c := range cases {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median(seq(4)); got != 2.5 {
		t.Errorf("median 1..4 = %v", got)
	}
	if got := median(seq(5)); got != 3 {
		t.Errorf("median 1..5 = %v", got)
	}
}

// TestTailSelection: the tail is the highest ladder percentile with at
// least ten samples ranked beyond it, and the run says which it used.
func TestTailSelection(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{10000, 99.9, 9990, 10}, // 0.1% of 10000 is exactly ten
		{2000, 99.5, 1990, 10},
		{1000, 99, 990, 10},
		{200, 95, 190, 10},
		{100, 90, 90, 10},
		{33, 69, 23, 10}, // rank ceil(22.77) = 23 leaves ten
		{15, 50, 8, 7},   // too few for any rung: the median, flagged by its count
	}
	for _, c := range cases {
		v, p, b := tail(seq(c.n))
		if v != c.value || p != c.pct || b != c.beyond {
			t.Errorf("tail of %d samples = (%v, p%v, %d beyond), want (%v, p%v, %d)", c.n, v, p, b, c.value, c.pct, c.beyond)
		}
		if c.n > minBeyond && c.pct > 50 && b < minBeyond {
			t.Errorf("tail of %d samples rests on %d samples", c.n, b)
		}
	}
}

// TestWindowedTail: each window of tailWindow operations gives its p90,
// the median window wins over a burst confined to one window, and a run
// shorter than a window falls back to the whole-run tail.
func TestWindowedTail(t *testing.T) {
	var lat []float64
	for w := 0; w < 5; w++ {
		xs := seq(tailWindow)
		for i := range xs {
			xs[i] += float64(w) // window w's p90 is 90+w
			if w == 1 {
				xs[i] *= 100 // a burst of interference
			}
		}
		lat = append(lat, xs...)
	}
	lat = append(lat, 1e9) // the partial last window is left out
	v, p, b, k := windowedTail(lat)
	if v != 93 || p != 90 || b != 10 || k != 5 {
		t.Errorf("windowed tail = (%v, p%v, %d beyond, %d windows), want (93, p90, 10, 5)", v, p, b, k)
	}

	v, p, b, k = windowedTail(lat[:2*tailWindow])
	if v != (90+9100)/2.0 || p != 90 || b != 10 || k != 2 {
		t.Errorf("two windows = (%v, p%v, %d beyond, %d windows), want the mean of their p90s", v, p, b, k)
	}

	short := seq(tailWindow - 1)
	v, p, b, k = windowedTail(short)
	wv, wp, wb := tail(short)
	if v != wv || p != wp || b != wb || k != 0 {
		t.Errorf("tail of %d operations = (%v, p%v, %d, %d windows), want the whole-run (%v, p%v, %d, 0)", len(short), v, p, b, k, wv, wp, wb)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.N != 10 || s.Median != 5.5 || s.Q1 != 2.75 || s.Q3 != 8.25 {
		t.Errorf("summary %+v", s)
	}
}
