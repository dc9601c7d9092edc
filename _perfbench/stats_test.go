package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{10, 1, 7, 3, 5} // sorted: 1 3 5 7 10
	cases := []struct{ p, want float64 }{
		{0, 1}, {25, 3}, {50, 5}, {90, 8.8}, {100, 10}, {62.5, 6},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := percentile([]float64{4}, 90); got != 4 {
		t.Errorf("percentile of one sample = %v, want 4", got)
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(data, n=4) returns for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3.5, 1.25, 9.0, 4.0}, 1.8125, 3.75, 7.75},
		{[]float64{2, 8}, 0.5, 5, 9.5},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, 2, 4, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.data)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestRelativeSpread(t *testing.T) {
	if got := relativeSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := relativeSpread([]float64{4, 4, 4}); got != 0 {
		t.Errorf("spread of constant samples = %v, want 0", got)
	}
}
