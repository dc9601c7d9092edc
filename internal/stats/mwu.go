package stats

import (
	"math"
	"slices"
)

// MWUResult reports the outcome of a two-sided Mann-Whitney U test.
type MWUResult struct {
	// U is the test statistic for the first sample (number of pairs
	// (a, b) with a < b, counting ties as one half).
	U float64
	// Z is the standardised statistic under the normal approximation
	// with tie correction.
	Z float64
	// P is the two-sided p-value.
	P float64
	// CL is the common-language effect size: the probability that a
	// randomly chosen element of A is smaller than a randomly chosen
	// element of B (ties counted half). For normalised runtimes where
	// smaller means faster, CL is the probability the optimisation wins.
	CL float64
	// NA and NB record the sample sizes.
	NA, NB int
}

// Significant reports whether the null hypothesis (identical
// distributions) is rejected at the given alpha, e.g. 0.05.
func (r MWUResult) Significant(alpha float64) bool {
	return !math.IsNaN(r.P) && r.P < alpha
}

// MannWhitneyU performs a two-sided Mann-Whitney U test comparing
// samples a and b, using the normal approximation with continuity and
// tie corrections. This is the paper's rank-based, magnitude-agnostic
// significance test (Section III-A): it asks whether one sample is
// stochastically smaller than the other without regard to by how much.
//
// The approximation is standard for n >= 8 combined; the study's A/B
// lists hold dozens to hundreds of entries, far above that. For tiny or
// empty inputs the result carries P = NaN (never significant).
func MannWhitneyU(a, b []float64) MWUResult {
	na, nb := len(a), len(b)
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	slices.Sort(sa)
	slices.Sort(sb)

	// Merge the sorted samples one tie group at a time, in ascending
	// order. A group of t observations at 0-based merged positions
	// pos..pos+t-1 shares the mid-rank pos + (t+1)/2; the rank sum of A
	// and the tie correction term sum(t^3 - t) accumulate per group.
	// Every rank is a half-integer, so both sums are exact.
	n := na + nb
	ra, tieTerm := 0.0, 0.0
	for i, j, pos := 0, 0, 0; pos < n; {
		ga, gb := i, j
		// Open the group at the smaller head, then extend it over both
		// samples' runs of that value.
		var v float64
		if j == nb || (i < na && sa[i] <= sb[j]) {
			v, i = sa[i], i+1
		} else {
			v, j = sb[j], j+1
		}
		i, j = tieEnd(sa, i, v), tieEnd(sb, j, v)
		t := i - ga + j - gb
		mid := float64(2*pos+t+1) / 2
		ra += float64(i-ga) * mid
		if t > 1 {
			ft := float64(t)
			tieTerm += ft*ft*ft - ft
		}
		pos += t
	}

	return mwuFromRanks(na, nb, ra, tieTerm)
}

// MannWhitneyUOnes is MannWhitneyU(a, b) for b holding nb copies of
// 1.0, computed from counts instead of a sort: a holds below values
// under 1.0, ones equal to it and above over it, and ties is
// Σ(t³−t) over the tie groups of a's values other than 1.0. This is
// Algorithm 1's test, where b is a list of 1.0s as long as a.
//
// In the merged sample the values under 1.0 hold ranks 1..below
// whatever their tie groups, the 1.0 group of t = ones+nb shares the
// mid-rank below+(t+1)/2, and the values over 1.0 hold the ranks after
// it. So A's rank sum is a closed form of the counts, twice it is an
// integer, and the tie term adds the 1.0 group's t³−t to ties. Both
// are the exact values MannWhitneyU accumulates, so the result is
// bit-identical to it.
func MannWhitneyUOnes(below, ones, above, nb int, ties int64) MWUResult {
	l, e, g := int64(below), int64(ones), int64(above)
	t := e + int64(nb)
	twoRa := l*(l+1) + e*(2*l+t+1) + g*(2*(l+t)+g+1)
	return mwuFromRanks(below+ones+above, nb, float64(twoRa)/2, float64(ties+t*t*t-t))
}

// mwuFromRanks finishes a test from A's rank sum ra in the merged
// sample and the tie term Σ(t³−t) over its tie groups.
func mwuFromRanks(na, nb int, ra, tieTerm float64) MWUResult {
	res := MWUResult{NA: na, NB: nb, P: math.NaN(), CL: math.NaN()}
	if na == 0 || nb == 0 {
		return res
	}
	fa, fb := float64(na), float64(nb)
	ua := ra - fa*(fa+1)/2 // U statistic counting pairs where a > b (+half ties)
	// CL as defined above wants P(a < b), which is 1 - ua/(na*nb).
	res.U = fa*fb - ua
	res.CL = res.U / (fa * fb)

	mu := fa * fb / 2
	fn := float64(na + nb)
	varU := fa * fb / 12 * ((fn + 1) - tieTerm/(fn*(fn-1)))
	if varU <= 0 {
		// All observations identical: no evidence of any difference.
		res.Z = 0
		res.P = 1
		return res
	}
	// Continuity correction of 0.5 toward the mean.
	d := ua - mu
	switch {
	case d > 0:
		d -= 0.5
	case d < 0:
		d += 0.5
	}
	z := d / math.Sqrt(varU)
	res.Z = z
	res.P = 2 * normSF(math.Abs(z))
	if res.P > 1 {
		res.P = 1
	}
	return res
}

// tieEnd returns the end of the run of values equal to v that starts
// at s[k] in the sorted sample s.
func tieEnd(s []float64, k int, v float64) int {
	//lint:allow floatcmp tie groups need exact equality; a tolerance would merge distinct ranks
	for k < len(s) && s[k] == v {
		k++
	}
	return k
}

// normSF is the standard normal survival function 1 - Phi(x).
func normSF(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}
