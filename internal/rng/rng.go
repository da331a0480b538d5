// Package rng provides a deterministic, seedable pseudo-random number
// generator and the exact discrete samplers the testing algorithms rely on
// (Poisson, Binomial, Gamma, Beta, Geometric, Gaussian).
//
// Every randomized component in this repository takes an explicit *RNG so
// that experiments are reproducible end to end from a single seed. The
// generator is xoshiro256**, seeded through splitmix64, which is more than
// adequate for Monte-Carlo work and much faster than crypto sources.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// It is NOT safe for concurrent use; give each goroutine its own RNG,
// e.g. via Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// New returns an RNG seeded from the given seed using splitmix64, so that
// nearby seeds produce unrelated streams.
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
	// Guard against the (astronomically unlikely) all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 0x9e3779b97f4a7c15
	}
}

// Split derives an independent child generator from r's stream. The child's
// sequence is unrelated to r's subsequent output.
func (r *RNG) Split() *RNG {
	child := &RNG{}
	r.SplitInto(child)
	return child
}

// SplitInto is Split without the allocation: it re-seeds child in place
// with exactly the randomness Split would have consumed from r, so the two
// are interchangeable stream-for-stream. Hot loops that re-derive child
// generators every round (the sieve's replicate fan-out) keep their RNG
// structs in scratch and re-split into them.
func (r *RNG) SplitInto(child *RNG) {
	child.Seed(r.Uint64() ^ 0xd1b54a32d192ed03)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result
}

// Next is Uint64 on a value: it returns the output Uint64 would return
// and the generator Uint64 would leave behind, without changing r. A
// batch loop that copies a generator into a local and calls Uint64 on
// it takes the local's address, and Go then keeps the state in memory,
// where every step waits on a load; stepped as g = g.Next() the state
// stays in registers. The two produce the same sequence.
func (r RNG) Next() (uint64, RNG) {
	result := bits.RotateLeft64(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = bits.RotateLeft64(r.s3, 45)
	return result, r
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Float64Open returns a uniform float64 in (0, 1); useful when a logarithm
// of the result is taken.
func (r *RNG) Float64Open() float64 {
	for {
		f := float64(r.Uint64()>>11+1) * (1.0 / (1 << 53))
		if f < 1 {
			return f
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// It uses Lemire's nearly-divisionless bounded rejection.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive bound")
	}
	un := uint64(n)
	x := r.Uint64()
	hi, lo := bits.Mul64(x, un)
	if lo < un {
		thresh := -un % un
		for lo < thresh {
			x = r.Uint64()
			hi, lo = bits.Mul64(x, un)
		}
	}
	return int(hi)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	switch {
	case p <= 0:
		return false
	case p >= 1:
		return true
	}
	return r.Float64() < p
}

// Exponential returns an Exp(1) variate (mean 1).
func (r *RNG) Exponential() float64 {
	return -math.Log(r.Float64Open())
}

// Normal returns a standard Gaussian variate via the Marsaglia polar method.
func (r *RNG) Normal() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Geometric returns the number of failures before the first success in
// Bernoulli(p) trials (support {0, 1, 2, ...}). It panics if p is not in
// (0, 1].
func (r *RNG) Geometric(p float64) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs p in (0,1]")
	}
	if p == 1 {
		return 0
	}
	// Inversion: floor(log(U) / log(1-p)).
	g := math.Floor(math.Log(r.Float64Open()) / math.Log1p(-p))
	if g < 0 {
		return 0
	}
	if g > float64(math.MaxInt32) {
		return math.MaxInt32
	}
	return int(g)
}

// Perm returns a uniformly random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
