package stats

import (
	"math"
	"math/bits"
	"slices"
	"sort"
)

// Mean returns the arithmetic mean of xs, or NaN for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs, or NaN for an empty slice. The input
// is not modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MedianInPlace returns Median(xs) bit for bit, but reorders xs instead
// of sorting a copy: a selection, linear on average. xs must hold no
// NaN (Algorithm 1 feeds it positive, finite runtime ratios).
func MedianInPlace(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	hi := selectKth(xs, n/2)
	if n%2 == 1 {
		return hi
	}
	// selectKth left the n/2 smallest values in front of xs[n/2].
	return (Max(xs[:n/2]) + hi) / 2
}

// selectKth reorders xs so that xs[k] holds the value a sort would put
// there, with no larger value before it and no smaller one after, and
// returns it. Each round splits the range around a median-of-three
// pivot into values below, equal to and above it, so heavy ties end
// the search early; a range that survives 2·log2(n) rounds is sorted,
// which bounds the worst case at O(n log n).
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)
	for rounds := 2 * bits.Len(uint(len(xs))); rounds > 0 && hi-lo > 12; rounds-- {
		p := medianOf3(xs[lo], xs[(lo+hi)/2], xs[hi-1])
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := xs[i]; {
			case v < p:
				xs[lt], xs[i] = v, xs[lt]
				lt++
				i++
			case v > p:
				gt--
				xs[gt], xs[i] = v, xs[gt]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return p
		}
	}
	slices.Sort(xs[lo:hi])
	return xs[k]
}

// medianOf3 returns the middle value of a, b and c.
func medianOf3(a, b, c float64) float64 {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	return max(a, b)
}

// GeoMean returns the geometric mean of xs. All values must be positive;
// non-positive values yield NaN (timings and ratios are always > 0 in
// this study, so a NaN flags a pipeline bug loudly rather than silently
// skewing a summary).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Variance returns the unbiased sample variance (n-1 denominator), or
// NaN when fewer than two samples are supplied.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest element of xs, or NaN for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or NaN for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
