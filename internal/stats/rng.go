// Package stats provides the small statistics and pseudo-randomness
// substrate used throughout the reproduction: a deterministic, splittable
// random number generator, descriptive statistics, and discrete
// distributions matching the experimental configuration tables of the
// paper (Table 6).
//
// Everything in this package is deterministic given a seed, which makes
// every experiment in the repository exactly reproducible.
package stats

// RNG is a deterministic, splittable pseudo-random number generator.
//
// The core generator is xoshiro256**, seeded through splitmix64 exactly as
// recommended by its authors. RNG is intentionally not safe for concurrent
// use; call Split to derive independent generators for concurrent workers.
type RNG struct {
	s [4]uint64
}

// splitmix64 advances the given state and returns the next output. It is
// used both for seeding xoshiro256** and for deriving split seeds.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator deterministically seeded from seed.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro256** must not be seeded with the all-zero state; splitmix64
	// cannot produce four consecutive zeros, so this is already impossible,
	// but guard anyway for clarity.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
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

// Split derives a new generator whose future outputs are statistically
// independent of the receiver's. The receiver is advanced, so repeated
// splits yield distinct children.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a5deadbeef)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	// 53 random mantissa bits, the standard construction.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is unnecessary at the
	// scales used here; simple rejection sampling keeps the distribution
	// exactly uniform.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Range returns a uniform value in [lo, hi]. It panics if hi < lo.
func (r *RNG) Range(lo, hi int) int {
	if hi < lo {
		panic("stats: Range called with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Pick returns a uniformly chosen element of xs. It panics on an empty
// slice.
func Pick[T any](r *RNG, xs []T) T {
	if len(xs) == 0 {
		panic("stats: Pick from empty slice")
	}
	return xs[r.Intn(len(xs))]
}
