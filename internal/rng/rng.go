// Package rng provides a small, deterministic pseudo-random number
// generator and the distributions used by the workload generators and
// uncertainty models.
//
// The generator is SplitMix64 (Steele, Lea, Flood; OOPSLA 2014). It is
// chosen over math/rand because its output is fully specified by this
// package alone: results are reproducible bit-for-bit across Go versions
// and platforms, which the experiment harness relies on to regenerate the
// paper's figures deterministically.
package rng

import "math"

// Source is a deterministic pseudo-random source. The zero value is a
// valid generator seeded with 0; use New to seed explicitly.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed. Distinct seeds yield
// uncorrelated streams for all practical purposes.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split returns a new Source whose stream is independent of s for all
// practical purposes. It advances s. Split is convenient for handing
// sub-generators to parallel workers while keeping determinism.
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0x9e3779b97f4a7c15)
}

// Uint64 returns the next value of the SplitMix64 sequence.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method would be marginally
	// faster; plain modulo bias is negligible for n << 2^64 and keeps
	// the sequence easy to reason about in tests.
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high-quality bits into the mantissa.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform float64 in [lo, hi). It panics if hi < lo.
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("rng: Uniform called with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// Norm returns a standard normal variate via the Box–Muller transform.
func (s *Source) Norm() float64 {
	// Draw u in (0,1] to avoid log(0).
	u := 1 - s.Float64()
	v := s.Float64()
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// LogNormal returns exp(N(mu, sigma^2)).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.Norm())
}

// Exp returns an exponential variate with rate lambda (mean 1/lambda).
// It panics if lambda <= 0.
func (s *Source) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exp called with lambda <= 0")
	}
	return -math.Log(1-s.Float64()) / lambda
}

// Bool returns true with probability p (clamped to [0,1]).
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) using the
// Fisher–Yates shuffle.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
