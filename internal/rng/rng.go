// Package rng provides a small, fast, deterministic pseudo-random number
// generator used everywhere in the simulator. Determinism across runs and
// Go versions matters: the engine's async scheduler, the hash draws of
// TestOut/FindAny and the workload generators must replay identically for a
// given seed so that tests and benchmarks are reproducible.
//
// The generator is SplitMix64 (Steele, Lea & Flood), which passes BigCrush
// and is trivially seedable; it is not cryptographic, matching the paper's
// Monte Carlo setting.
package rng

// RNG is a deterministic pseudo-random generator. Not safe for concurrent
// use; the engine is single-threaded-equivalent so this is never an issue.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seed restarts r as New(seed) would, in place.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// Split returns a new generator whose stream is independent of the
// receiver's future output; used to give each subsystem its own stream.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64n returns a uniform value in [0, n). n must be positive.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n(0)")
	}
	// Rejection sampling to avoid modulo bias.
	max := ^uint64(0) - ^uint64(0)%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Intn returns a uniform value in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Range returns a uniform value in [lo, hi] inclusive. Requires lo <= hi.
func (r *RNG) Range(lo, hi uint64) uint64 {
	if lo > hi {
		panic("rng: Range with lo > hi")
	}
	return lo + r.Uint64n(hi-lo+1)
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a fair coin flip.
func (r *RNG) Bool() bool { return r.Uint64()&1 == 1 }

// OddUint64 returns a uniform odd 64-bit value (the multiplier of the odd
// hash function must be odd).
func (r *RNG) OddUint64() uint64 { return r.Uint64() | 1 }

// Perm returns a uniform permutation of [0, n) (Fisher-Yates).
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

// Shuffle permutes the first n elements using swap, Fisher-Yates style.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
