package stats

import "math"

// tCritical95 holds two-sided 95% critical values of Student's t
// distribution indexed by degrees of freedom. The study compares sets of
// three timed runs (df = 2 for a single sample's CI), so only small df
// matter; beyond the table we fall back to the asymptotic 1.96.
var tCritical95 = []float64{
	math.NaN(), // df 0: undefined
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// TCritical95 returns the two-sided 95% critical t value for the given
// degrees of freedom.
func TCritical95(df int) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if df < len(tCritical95) {
		return tCritical95[df]
	}
	return 1.96
}

// Interval is a closed interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Overlaps reports whether the two intervals intersect.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

// CI95 returns the 95% confidence interval for the mean of xs using
// Student's t distribution. With fewer than two samples the interval is
// degenerate at the single value (or NaN for none), which makes the
// overlap test conservative: a degenerate interval still has to fall
// outside the other interval to be called different.
func CI95(xs []float64) Interval {
	n := len(xs)
	switch n {
	case 0:
		return Interval{math.NaN(), math.NaN()}
	case 1:
		return Interval{xs[0], xs[0]}
	}
	m := Mean(xs)
	half := TCritical95(n-1) * StdDev(xs) / math.Sqrt(float64(n))
	return Interval{m - half, m + half}
}

// SignificantlyDifferent implements the paper's SIGNIFICANT predicate
// (Algorithm 1, line 14): two sets of timed runs differ when their 95%
// confidence intervals do not overlap. This gates which normalised
// runtimes enter the Mann-Whitney A/B lists, filtering out pure noise
// before the rank test sees it.
func SignificantlyDifferent(a, b []float64) bool {
	return Separated(CI95(a), CI95(b))
}

// Separated is SignificantlyDifferent over intervals already computed
// by CI95: true when both are defined and disjoint.
func Separated(ia, ib Interval) bool {
	if math.IsNaN(ia.Lo) || math.IsNaN(ib.Lo) {
		return false
	}
	return !ia.Overlaps(ib)
}
