// Package xrand provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Simulations must be exactly reproducible across runs and platforms, and
// the trace generators draw billions of values, so we use a fixed
// xoshiro256** generator seeded through splitmix64 rather than math/rand:
// the stream is part of the experiment definition, not an implementation
// detail of the Go release in use.
package xrand

import (
	"math"
	"math/bits"
)

// RNG is a xoshiro256** pseudo-random number generator.
// The zero value is not usable; construct with New.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// New returns a generator seeded from seed via splitmix64, so that nearby
// seeds still produce uncorrelated streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	r.s0, r.s1, r.s2, r.s3 = next(), next(), next(), next()
	// A xoshiro state of all zeros is an absorbing fixed point; splitmix64
	// cannot produce four zero words from any seed, but guard anyway.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and division-free
	// in the common case.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := bits.Mul64(v, un)
	if lo < un {
		threshold := (-un) % un
		for lo < threshold {
			v = r.Uint64()
			hi, lo = bits.Mul64(v, un)
		}
	}
	return int(hi)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns a sample from a geometric distribution with mean m
// (number of trials until first success, so the result is >= 1).
// It is used for loop trip counts and run lengths.
func (r *RNG) Geometric(m float64) int {
	if m <= 1 {
		return 1
	}
	// Success probability 1/m; inversion on the uniform.
	p := 1.0 / m
	u := r.Float64()
	// Avoid log(0).
	if u >= 1 {
		u = 0.9999999999999999
	}
	n := 1 + int(math.Log(1-u)/math.Log(1-p))
	if n < 1 {
		n = 1
	}
	return n
}
