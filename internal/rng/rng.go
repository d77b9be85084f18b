// Package rng provides a small, fast, deterministic pseudo-random number
// generator (splitmix64) used by all data generators and samplers so that
// every experiment in the repository is reproducible from a seed.
package rng

import "math"

// RNG is a splitmix64 generator. The zero value is a valid generator
// seeded with 0; use New to seed explicitly.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int64n returns a pseudo-random int64 in [0, n). It panics if n <= 0.
func (r *RNG) Int64n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int64n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Zipf draws from a Zipf-like distribution over [0, n) with exponent s>0
// using rejection-inversion. Small n and s near 1 are the common case in
// skewed join-key generation.
type Zipf struct {
	rng  *RNG
	n    int
	cdf  []float64 // precomputed cumulative weights
	norm float64
}

// NewZipf precomputes a Zipf sampler over [0, n) with exponent s.
func NewZipf(r *RNG, n int, s float64) *Zipf {
	z := &Zipf{rng: r, n: n, cdf: make([]float64, n)}
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = acc
	}
	z.norm = acc
	return z
}

// Draw returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Draw() int {
	u := z.rng.Float64() * z.norm
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
