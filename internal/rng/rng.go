// Package rng provides a deterministic, splittable pseudo-random number
// generator together with the sampling distributions used throughout REDI.
//
// All randomized components of the library accept a *rng.RNG rather than
// relying on global randomness, so every experiment, test, and benchmark in
// the repository is exactly reproducible from a seed. The generator is a
// PCG-XSL-RR 128/64 variant (the same family used by math/rand/v2), chosen
// for its speed, statistical quality, and cheap splitting.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator. It is not safe for
// concurrent use; use Split to derive independent generators for concurrent
// or logically separate consumers.
type RNG struct {
	hi, lo uint64
}

// New returns a generator seeded from seed. Two generators created with the
// same seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.seed(seed, seed*0x9e3779b97f4a7c15+0x243f6a8885a308d3)
	return r
}

func (r *RNG) seed(hi, lo uint64) {
	// Scramble the seed through SplitMix64 so that small or correlated
	// seeds still yield well-distributed internal state.
	r.hi = splitmix64(&hi)
	r.lo = splitmix64(&lo)
	// Avoid the all-zero state, which is a fixed point of the transition.
	if r.hi == 0 && r.lo == 0 {
		r.lo = 0x9e3779b97f4a7c15
	}
}

func splitmix64(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split returns a new generator whose stream is statistically independent of
// the receiver's. The receiver's own stream advances by one step, so the set
// of generators produced by a sequence of Split calls is itself
// deterministic.
func (r *RNG) Split() *RNG {
	child := &RNG{}
	child.seed(r.Uint64(), r.Uint64())
	return child
}

// Split returns the generator for one shard of a deterministic parallel
// computation: the stream is a pure function of (seed, shard), so any
// worker can recreate its shard's stream regardless of scheduling, and
// distinct shards get decorrelated streams. Shard 0 is intentionally not
// the same stream as New(seed), so sharded and unsharded consumers of the
// same seed do not accidentally alias.
func Split(seed uint64, shard int) *RNG {
	r := &RNG{}
	// Mix the shard into both state halves with distinct odd constants;
	// seed() then scrambles each half through SplitMix64, which maps the
	// (seed, shard) lattice onto well-separated internal states.
	s := uint64(shard) + 1
	r.seed(seed+s*0x632be59bd9b4e019, seed^(s*0xd1342543de82ef95))
	return r
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	// PCG-XSL-RR 128/64: a 128-bit LCG step followed by an
	// xorshift-rotate output permutation.
	const mulHi, mulLo = 2549297995355413924, 4865540595714422341
	const incHi, incLo = 6364136223846793005, 1442695040888963407

	hi, lo := r.hi, r.lo
	// 128-bit multiply-add: (hi,lo) = (hi,lo)*mul + inc.
	h := hi*mulLo + lo*mulHi
	l0, carry := bits.Mul64(lo, mulLo)
	h += l0
	lo = carry + incLo
	if lo < carry {
		h++
	}
	hi = h + incHi
	r.hi, r.lo = hi, lo

	// Output permutation.
	x := hi ^ lo
	rot := uint(hi >> 58)
	return x>>rot | x<<((64-rot)&63)
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed value in [0, n) using Lemire's
// nearly-divisionless rejection method. It panics if n == 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, as in math/rand.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}

// Normal returns a sample from the normal distribution with the given mean
// and standard deviation, via the Marsaglia polar method.
func (r *RNG) Normal(mean, stddev float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mean + stddev*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exponential returns a sample from the exponential distribution with the
// given rate parameter lambda. It panics if lambda <= 0.
func (r *RNG) Exponential(lambda float64) float64 {
	if lambda <= 0 {
		panic("rng: Exponential called with lambda <= 0")
	}
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u) / lambda
		}
	}
}

// Gamma returns a sample from the gamma distribution with the given shape
// and scale, using the Marsaglia–Tsang method. It panics if shape <= 0 or
// scale <= 0.
func (r *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		panic("rng: Gamma requires positive shape and scale")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal(0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return scale * d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return scale * d * v
		}
	}
}

// Dirichlet returns a sample from the Dirichlet distribution with the given
// concentration parameters. The result sums to 1. It panics if alpha is
// empty or contains a non-positive entry.
func (r *RNG) Dirichlet(alpha []float64) []float64 {
	if len(alpha) == 0 {
		panic("rng: Dirichlet requires at least one parameter")
	}
	out := make([]float64, len(alpha))
	sum := 0.0
	for i, a := range alpha {
		out[i] = r.Gamma(a, 1)
		sum += out[i]
	}
	if sum == 0 {
		// Degenerate draw (possible only for tiny alphas); fall back to
		// a uniform point on the simplex.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
