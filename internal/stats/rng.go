// Package stats provides the statistical machinery used throughout the
// study: descriptive statistics (median, geometric mean, quantiles), the
// Mann-Whitney U rank test with tie correction, common-language effect
// sizes, confidence intervals for small samples, and a deterministic
// pseudo-random number generator used to model measurement noise.
//
// Everything in this package is deterministic given its inputs; the PRNG
// is seeded explicitly so dataset generation is reproducible bit-for-bit.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded via SplitMix64). It is intentionally independent
// of math/rand so that the study's noise model cannot drift across Go
// releases.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, which
// guarantees a well-mixed non-zero internal state for any seed value.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform. Two uniforms are consumed per call; no state is cached, so
// interleaving with other draws remains deterministic.
func (r *RNG) NormFloat64() float64 {
	// Guard against log(0).
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// LogNormal returns a multiplicative noise factor exp(sigma * Z) where Z
// is standard normal. sigma around 0.01-0.05 models the run-to-run
// timing jitter seen on real GPU stacks (the paper notes OpenCL's lack
// of device timers makes its measurements "somewhat noisy").
func (r *RNG) LogNormal(sigma float64) float64 {
	return math.Exp(sigma * r.NormFloat64())
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
