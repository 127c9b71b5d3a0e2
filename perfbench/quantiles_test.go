package main

import (
	"math"
	"testing"
)

// The expected values are Python's statistics.median and
// statistics.quantiles(xs, n=4) on the same inputs.
func TestMedianAndQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1.2, 3.1, 5.5}, 1.2, 3.1, 5.5},
		{[]float64{5, 1}, 0, 3, 6},
		{[]float64{2, 2, 2, 9}, 2, 2, 7.25},
		{[]float64{0.93, 1.07, 1.01, 0.99, 1.2, 0.88, 1.03}, 0.93, 1.01, 1.07},
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
	for _, c := range cases {
		q1, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v", c.xs, q1, q3, ok, c.q1, c.q3)
		}
		if m := median(c.xs); !near(m, c.med) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.med)
		}
	}
}

func TestQuartilesNeedTwoValues(t *testing.T) {
	if _, _, ok := quartiles([]float64{1}); ok {
		t.Fatal("quartiles of one value reported ok")
	}
	if median(nil) != 0 || spread([]float64{3}) != 0 {
		t.Fatal("empty or single-value input must give zero")
	}
}

func TestSpreadIsInterquartileOverMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("spread = %v, want %v", got, want)
	}
	// The input is not reordered.
	if xs[0] != 1 || xs[9] != 10 {
		t.Fatal("spread sorted its input in place")
	}
}
