package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestMWUEmptyInputs(t *testing.T) {
	r := MannWhitneyU(nil, []float64{1, 2, 3})
	if !math.IsNaN(r.P) || r.Significant(0.05) {
		t.Errorf("empty sample should give NaN p, got %v", r.P)
	}
	r = MannWhitneyU([]float64{1}, nil)
	if !math.IsNaN(r.P) {
		t.Errorf("empty sample should give NaN p, got %v", r.P)
	}
}

func TestMWUIdenticalSamples(t *testing.T) {
	a := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	r := MannWhitneyU(a, a)
	if r.Significant(0.05) {
		t.Errorf("identical constant samples must not be significant, p=%v", r.P)
	}
	if !almostEqual(r.CL, 0.5, 1e-12) {
		t.Errorf("CL of identical samples = %v, want 0.5", r.CL)
	}
}

func TestMWUClearSeparation(t *testing.T) {
	// A entirely below B: strongly significant, CL = 1 (every a < every b).
	a := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := []float64{11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	r := MannWhitneyU(a, b)
	if !r.Significant(0.05) {
		t.Errorf("separated samples should be significant, p=%v", r.P)
	}
	if !almostEqual(r.CL, 1, 1e-12) {
		t.Errorf("CL = %v, want 1", r.CL)
	}
	// Reversed direction.
	r2 := MannWhitneyU(b, a)
	if !r2.Significant(0.05) {
		t.Errorf("reversed should also be significant, p=%v", r2.P)
	}
	if !almostEqual(r2.CL, 0, 1e-12) {
		t.Errorf("reversed CL = %v, want 0", r2.CL)
	}
}

func TestMWUSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		a := make([]float64, 15)
		b := make([]float64, 12)
		for i := range a {
			a[i] = r.NormFloat64()
		}
		for i := range b {
			b[i] = r.NormFloat64() + 0.3
		}
		r1 := MannWhitneyU(a, b)
		r2 := MannWhitneyU(b, a)
		// p-values agree; CL values are complementary.
		return almostEqual(r1.P, r2.P, 1e-9) && almostEqual(r1.CL+r2.CL, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMWUShiftedDistributionsDetected(t *testing.T) {
	r := NewRNG(77)
	a := make([]float64, 60)
	b := make([]float64, 60)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64() + 1.0
	}
	res := MannWhitneyU(a, b)
	if !res.Significant(0.01) {
		t.Errorf("1-sigma shift with n=60 should be highly significant, p=%v", res.P)
	}
	if res.CL < 0.7 {
		t.Errorf("CL = %v, expected > 0.7 for a 1-sigma shift", res.CL)
	}
}

func TestMWUNoFalsePositivesRate(t *testing.T) {
	// Under the null, the 5% test should reject roughly 5% of the time.
	r := NewRNG(101)
	rejects := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		a := make([]float64, 20)
		b := make([]float64, 20)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		if MannWhitneyU(a, b).Significant(0.05) {
			rejects++
		}
	}
	rate := float64(rejects) / trials
	if rate > 0.10 {
		t.Errorf("false positive rate = %v, want around 0.05", rate)
	}
}

func TestMWUHandlesTies(t *testing.T) {
	// Heavy ties should not blow up the variance computation.
	a := []float64{1, 1, 1, 2, 2, 2, 3, 3}
	b := []float64{2, 2, 3, 3, 3, 4, 4, 4}
	r := MannWhitneyU(a, b)
	if math.IsNaN(r.P) || r.P < 0 || r.P > 1 {
		t.Errorf("p out of range with ties: %v", r.P)
	}
	if r.CL <= 0.5 {
		t.Errorf("A is stochastically smaller; CL = %v, want > 0.5", r.CL)
	}
}

func TestMWUKnownSmallExample(t *testing.T) {
	// Hand-computed example: A = {1,2,3}, B = {4,5,6}.
	// U_A(pairs a<b) = 9 of 9, CL = 1. With n=3 each the normal
	// approximation gives |z| ~ 1.75..2.0, p ~ 0.05..0.08: not
	// necessarily significant, but direction must be right.
	r := MannWhitneyU([]float64{1, 2, 3}, []float64{4, 5, 6})
	if !almostEqual(r.CL, 1, 1e-12) {
		t.Errorf("CL = %v, want 1", r.CL)
	}
	if r.U != 9 {
		t.Errorf("U = %v, want 9", r.U)
	}
	if r.P < 0 || r.P > 1 {
		t.Errorf("p out of range: %v", r.P)
	}
}

func TestMWUPValueInRange(t *testing.T) {
	f := func(seed uint64, na, nb uint8) bool {
		r := NewRNG(seed)
		la := int(na%30) + 1
		lb := int(nb%30) + 1
		a := make([]float64, la)
		b := make([]float64, lb)
		for i := range a {
			a[i] = math.Round(r.NormFloat64()*4) / 4 // induce ties
		}
		for i := range b {
			b[i] = math.Round(r.NormFloat64()*4) / 4
		}
		res := MannWhitneyU(a, b)
		return res.P >= 0 && res.P <= 1 && res.CL >= 0 && res.CL <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// refMannWhitneyU is the struct-slice implementation MannWhitneyU
// replaced: one sort.Slice over tagged observations, then a scan
// assigning mid-ranks per tie group. It is the bit-identity reference.
func refMannWhitneyU(a, b []float64) MWUResult {
	na, nb := len(a), len(b)
	res := MWUResult{NA: na, NB: nb, P: math.NaN(), CL: math.NaN()}
	if na == 0 || nb == 0 {
		return res
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, na+nb)
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })
	n := na + nb
	ranks := make([]float64, n)
	tieTerm := 0.0
	for i := 0; i < n; {
		j := i
		for j < n && all[j].v == all[i].v {
			j++
		}
		mid := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			ranks[k] = mid
		}
		t := float64(j - i)
		if t > 1 {
			tieTerm += t*t*t - t
		}
		i = j
	}
	ra := 0.0
	for i, o := range all {
		if o.fromA {
			ra += ranks[i]
		}
	}
	fa, fb := float64(na), float64(nb)
	ua := ra - fa*(fa+1)/2
	res.U = fa*fb - ua
	res.CL = res.U / (fa * fb)
	mu := fa * fb / 2
	fn := float64(n)
	varU := fa * fb / 12 * ((fn + 1) - tieTerm/(fn*(fn-1)))
	if varU <= 0 {
		res.Z = 0
		res.P = 1
		return res
	}
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

// onesCounts returns MannWhitneyUOnes' arguments for a: how many of its
// values lie below, at and above 1.0, and Σ(t³−t) over the tie groups
// of its values other than 1.0.
func onesCounts(a []float64) (below, ones, above int, ties int64) {
	groups := map[float64]int64{}
	for _, v := range a {
		switch {
		case v < 1:
			below++
		case v > 1:
			above++
		default:
			ones++
			continue
		}
		groups[v]++
	}
	for _, t := range groups {
		ties += t*t*t - t
	}
	return below, ones, above, ties
}

// TestMWUBitIdenticalToReference: the sort-and-merge MannWhitneyU
// returns the reference's U, Z, P and CL to the bit on heavily tied
// samples (values from a small set that includes the exact 1.0s
// Algorithm 1 feeds as b), at sizes 0 to 3000, in both argument orders.
// Where b is all 1.0s, so does the count-based MannWhitneyUOnes.
func TestMWUBitIdenticalToReference(t *testing.T) {
	r := NewRNG(23)
	values := []float64{0.25, 0.5, 0.9, 0.999, 1.0, 1.0, 1.0, 1.001, 1.1, 2.0, 7.5}
	draw := func(n int, onesOnly bool) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			switch {
			case onesOnly:
				xs[i] = 1.0
			case r.Intn(8) == 0:
				xs[i] = r.Float64() * 3 // untied values between the ties
			default:
				xs[i] = values[r.Intn(len(values))]
			}
		}
		return xs
	}
	size := func() int {
		if r.Intn(4) == 0 {
			return r.Intn(3001)
		}
		return r.Intn(40)
	}
	same := func(x, y MWUResult) bool {
		return x.NA == y.NA && x.NB == y.NB &&
			math.Float64bits(x.U) == math.Float64bits(y.U) &&
			math.Float64bits(x.Z) == math.Float64bits(y.Z) &&
			math.Float64bits(x.P) == math.Float64bits(y.P) &&
			math.Float64bits(x.CL) == math.Float64bits(y.CL)
	}
	for trial := 0; trial < 300; trial++ {
		a := draw(size(), false)
		b := draw(size(), trial%2 == 0)
		for _, pair := range [][2][]float64{{a, b}, {b, a}} {
			got, want := MannWhitneyU(pair[0], pair[1]), refMannWhitneyU(pair[0], pair[1])
			if !same(got, want) {
				t.Fatalf("trial %d (na=%d nb=%d): got %+v, reference %+v", trial, len(pair[0]), len(pair[1]), got, want)
			}
		}
		if trial%2 == 0 {
			below, ones, above, ties := onesCounts(a)
			got, want := MannWhitneyUOnes(below, ones, above, len(b), ties), refMannWhitneyU(a, b)
			if !same(got, want) {
				t.Fatalf("trial %d (na=%d nb=%d, counts %d/%d/%d, ties %d): MannWhitneyUOnes %+v, reference %+v",
					trial, len(a), len(b), below, ones, above, ties, got, want)
			}
		}
	}
}
