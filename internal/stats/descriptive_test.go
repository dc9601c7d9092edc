package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, math.NaN()},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianOddEven(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of empty should be NaN")
	}
}

func TestMedianDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

// TestMedianInPlaceMatchesMedian: on heavily tied random inputs of
// every size from 0 to 300 (odd and even, 0, 1 and 2 included), and on
// sorted and reversed ones, MedianInPlace returns Median's bits and
// only reorders its input.
func TestMedianInPlaceMatchesMedian(t *testing.T) {
	r := NewRNG(31)
	for trial := 0; trial < 1000; trial++ {
		n := trial
		if n > 300 {
			n = r.Intn(3000)
		}
		distinct := 1 + r.Intn(n+1) // few distinct values: many duplicates
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(1+r.Intn(distinct)) / 8
		}
		switch trial % 5 {
		case 1:
			sort.Float64s(xs)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		}
		want := Median(xs)
		in := append([]float64(nil), xs...)
		got := MedianInPlace(in)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (n=%d): MedianInPlace = %v, Median = %v", trial, n, got, want)
		}
		sort.Float64s(xs)
		sort.Float64s(in)
		if !slices.Equal(in, xs) {
			t.Fatalf("trial %d (n=%d): MedianInPlace changed the values, not just their order", trial, n)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); !almostEqual(got, 4, 1e-12) {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{1, 1, 1}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("GeoMean(ones) = %v, want 1", got)
	}
	if !math.IsNaN(GeoMean([]float64{1, 0, 2})) {
		t.Error("GeoMean with zero should be NaN")
	}
	if !math.IsNaN(GeoMean([]float64{-1})) {
		t.Error("GeoMean with negative should be NaN")
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Error("GeoMean of empty should be NaN")
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !almostEqual(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of single sample should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Max(xs) != 7 {
		t.Errorf("Max = %v", Max(xs))
	}
	if !math.IsNaN(Max(nil)) {
		t.Error("Max of empty should be NaN")
	}
}

func TestGeoMeanLogIdentity(t *testing.T) {
	// Property: geomean(xs) == exp(mean(log(xs))) for positive xs.
	f := func(seed uint64, n uint8) bool {
		r := NewRNG(seed)
		m := int(n%20) + 1
		xs := make([]float64, m)
		logs := make([]float64, m)
		for i := range xs {
			xs[i] = 0.001 + r.Float64()*100
			logs[i] = math.Log(xs[i])
		}
		return almostEqual(GeoMean(xs), math.Exp(Mean(logs)), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMedianBetweenMinAndMax(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		r := NewRNG(seed)
		m := int(n%30) + 1
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		med := Median(xs)
		return med >= slices.Min(xs) && med <= Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
