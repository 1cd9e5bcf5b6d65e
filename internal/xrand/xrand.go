// Package xrand provides a small, deterministic pseudo-random number
// generator for the simulator.
//
// The simulator must be reproducible bit-for-bit across runs and across
// machines so that tests can assert tight numeric bands on experiment
// outputs. We therefore avoid math/rand's global state and implement
// xoshiro256**, seeded through splitmix64, with explicit per-component
// streams: every simulated entity (a MAC, a traffic source, a home
// scenario) derives its own independent stream from a scenario seed and a
// stream label.
package xrand

import "math"

// Rand is a deterministic xoshiro256** pseudo-random number generator.
// The zero value is not valid; construct one with New or NewFromLabel.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances the seed-expansion state and returns the next value.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed re-initializes the generator in place, exactly as New would.
// Pooled simulation components reseed their long-lived streams between
// runs instead of allocating fresh generators.
func (r *Rand) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro256** must not be seeded with the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
}

// LabelSeed hashes a (seed, label) pair to the stream seed NewFromLabel
// uses — exposed so callers that re-derive the same labelled stream many
// times (the deploy sampler's per-bin streams) can cache label strings
// and reseed in place.
func LabelSeed(seed uint64, label string) uint64 {
	return labelHash(seed, label)
}

// labelHash is the FNV-1a fold shared by every label derivation.
func labelHash(seed uint64, label string) uint64 {
	h := seed ^ 0xcbf29ce484222325
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 0x100000001b3
	}
	return h
}

// LabelSeedInt returns LabelSeed(seed, label + decimal(n)) without
// materializing the concatenated string — the fast path for indexed
// stream families like "fleet/home/42".
func LabelSeedInt(seed uint64, label string, n int) uint64 {
	// Fold the prefix with the shared hash, then continue the same FNV
	// fold over the decimal digits of n.
	h := labelHash(seed, label)
	var buf [20]byte
	i := len(buf)
	if n < 0 {
		// Matches the fmt/strconv rendering of negative indices.
		for v := uint64(-int64(n)); ; {
			i--
			buf[i] = byte('0' + v%10)
			v /= 10
			if v == 0 {
				break
			}
		}
		i--
		buf[i] = '-'
	} else {
		for v := uint64(n); ; {
			i--
			buf[i] = byte('0' + v%10)
			v /= 10
			if v == 0 {
				break
			}
		}
	}
	for ; i < len(buf); i++ {
		h ^= uint64(buf[i])
		h *= 0x100000001b3
	}
	return h
}

// NewFromLabel derives an independent stream from a base seed and a string
// label. Two distinct labels yield (with overwhelming probability)
// uncorrelated streams, letting simulation components draw randomness
// without perturbing each other's sequences.
func NewFromLabel(seed uint64, label string) *Rand {
	return New(LabelSeed(seed, label))
}

// ReseedFromLabel re-initializes the generator in place on the labelled
// stream NewFromLabel(seed, label) would produce.
func (r *Rand) ReseedFromLabel(seed uint64, label string) {
	r.Reseed(LabelSeed(seed, label))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
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

// Float64 returns a uniformly distributed value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uniform returns a uniformly distributed value in [lo, hi).
func (r *Rand) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Exp returns an exponentially distributed value with the given mean.
// Exponential inter-arrival times model Poisson packet arrivals.
func (r *Rand) Exp(mean float64) float64 {
	u := r.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(1-u)
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the Box–Muller transform.
func (r *Rand) Normal(mean, stddev float64) float64 {
	u1 := r.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// Poisson returns a Poisson-distributed count with the given mean.
// Small means use Knuth's product-of-uniforms method; large means
// (where that method needs ~mean draws and float underflow looms) use
// the rounded-normal approximation, which is accurate to well under a
// count at mean > 30. Fleet population synthesis draws device and
// neighbor counts from this. A mean that is not a positive finite
// number gives 0, and a draw beyond the int range gives math.MaxInt.
func (r *Rand) Poisson(mean float64) int {
	if !(mean > 0) || math.IsInf(mean, 1) {
		return 0
	}
	if mean > 30 {
		x := r.Normal(mean, math.Sqrt(mean)) + 0.5
		switch {
		case x < 0:
			return 0
		case x >= math.MaxInt:
			return math.MaxInt
		}
		return int(x)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}
