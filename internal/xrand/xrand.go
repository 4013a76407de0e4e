// Package xrand provides the deterministic, splittable pseudo-random number
// generation used by the workload generators and the experiment harness.
//
// Two properties matter more here than statistical sophistication:
//
//   - Reproducibility: a run is identified by a single root seed; every
//     result in EXPERIMENTS.md can be regenerated bit-for-bit.
//   - Splittability: each job, task, and trace generator derives its own
//     independent stream from the root seed, so adding instrumentation or
//     reordering draws in one component never perturbs another.
//
// The generator is PCG32 (O'Neill, pcg-random.org) seeded through SplitMix64,
// both implemented here from their published descriptions.
package xrand

import "math"

// Source is a deterministic PCG32 random stream. The zero value is a valid
// stream (equivalent to New(0, 0)), but callers normally construct streams
// with New or Split.
type Source struct {
	state uint64
	inc   uint64
}

// splitmix64 advances a SplitMix64 state and returns the next output.
// It is used to expand user seeds into well-distributed PCG parameters.
func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream determined by (seed, stream). Distinct stream values
// yield statistically independent sequences for the same seed.
func New(seed, stream uint64) *Source {
	s := &Source{}
	s.Seed(seed, stream)
	return s
}

// Seed resets s in place to the stream New(seed, stream) would produce, so
// a long-lived component can rewind its generator between runs without
// allocating. After Seed the source is bitwise identical to a fresh New.
func (s *Source) Seed(seed, stream uint64) {
	sm := seed
	s.state = splitmix64(&sm)
	s.inc = (splitmix64(&sm)+2*stream)*2 + 1 // must be odd
	// Advance a couple of steps so that similar seeds diverge immediately.
	s.Uint32()
	s.Uint32()
}

// Split derives a child stream from s, keyed by label. The parent stream is
// not advanced, so components may be split in any order.
func (s *Source) Split(label uint64) *Source {
	mix := s.state ^ (label * 0xda942042e4dd58b5)
	return New(mix, s.inc>>1^label)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (s *Source) Uint32() uint32 {
	old := s.state
	s.state = old*6364136223846793005 + s.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	return uint64(s.Uint32())<<32 | uint64(s.Uint32())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method keeps the result unbiased.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	bound := uint32(n)
	threshold := -bound % bound
	for {
		r := s.Uint32()
		m := uint64(r) * uint64(bound)
		if uint32(m) >= threshold {
			return int(m >> 32)
		}
	}
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int63n with non-positive n")
	}
	maxUsable := math.MaxUint64 - math.MaxUint64%uint64(n)
	for {
		v := s.Uint64()
		if v < maxUsable {
			return int64(v % uint64(n))
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Perm returns a uniform random permutation of [0, n) using Fisher-Yates.
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

// Clone returns an independent copy of the stream: both produce the same
// subsequent values but advance separately.
func (s *Source) Clone() *Source {
	c := *s
	return &c
}
