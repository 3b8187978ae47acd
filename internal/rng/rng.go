// Package rng provides small, fast, deterministic pseudo-random number
// generators used throughout the repository.
//
// Every randomized algorithm in this module (matrix generation, matching
// order, initial partitioning, tie-breaking in refinement) draws from an
// explicitly seeded generator so that experiments are reproducible
// bit-for-bit across runs and machines. The implementation is
// xoshiro256** seeded via splitmix64, following the reference algorithms
// by Blackman and Vigna.
package rng

import "math"

// SplitMix64 is a tiny 64-bit generator mainly used to seed other
// generators and to derive independent child seeds from a parent seed.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a xoshiro256** generator. The zero value is not usable; create
// instances with New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded deterministically from seed.
func New(seed uint64) *RNG {
	sm := NewSplitMix64(seed)
	r := &RNG{}
	for i := range r.s {
		r.s[i] = sm.Next()
	}
	// Guard against the (astronomically unlikely) all-zero state, which
	// is the one fixed point of xoshiro256**.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// Child derives an independent generator from the current one. It is used
// to hand separate streams to sub-algorithms (e.g. one per recursion
// branch) without correlating their sequences.
func (r *RNG) Child() *RNG {
	return New(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 {
	return (x << k) | (x >> (64 - k))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, bound)
	if lo < bound {
		threshold := (-bound) % bound
		for lo < threshold {
			x = r.Uint64()
			hi, lo = mul64(x, bound)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	aLo, aHi := a&mask32, a>>32
	bLo, bHi := b&mask32, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the polar (Marsaglia) method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Perm returns a random permutation of [0, n) as a slice.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)). It draws
// exactly the same values from the generator as Perm, so callers can
// switch between the two (e.g. to reuse a scratch buffer) without
// perturbing any downstream random sequence.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
}

// Shuffle permutes p in place using the Fisher-Yates algorithm.
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Pick returns a uniformly chosen element of xs. It panics on an empty
// slice.
func (r *RNG) Pick(xs []int) int {
	return xs[r.Intn(len(xs))]
}
