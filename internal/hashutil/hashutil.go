// Package hashutil provides fast, deterministic, seedable hash functions and
// small families of independent hash functions.
//
// The paper's constructions (low-associativity RAM allocation, the Iceberg
// balls-and-bins rule) require k independent hash functions of a virtual page
// address, fixed once at the beginning of time. The adversary (the
// RAM-replacement policy and the request sequence) is oblivious to the
// random bits, which we model by seeding every family from a caller-supplied
// seed. All functions here are pure: the same (seed, key) pair always maps
// to the same value, so simulations are reproducible.
package hashutil

import (
	"math"
	"math/bits"
)

// Mix64 is a strong 64-bit finalizer (the splitmix64 finalizer with a
// pre-add so 0 is not a fixed point). It is a bijection on 64-bit values,
// so it never introduces collisions on its own.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hash64 hashes key under the given seed. Distinct seeds give (empirically)
// independent functions; see TestHash64Independence.
func Hash64(seed, key uint64) uint64 {
	// xor-fold the seed in twice around a multiply so that related seeds
	// (seed, seed+1, ...) still decorrelate.
	h := key ^ (seed * 0x9e3779b97f4a7c15)
	h = Mix64(h)
	h ^= bits.RotateLeft64(seed, 32)
	return Mix64(h)
}

// Range maps a 64-bit hash onto [0, n) without modulo bias, using the
// fixed-point multiply-shift trick. n must be > 0.
func Range(h uint64, n uint64) uint64 {
	hi, _ := bits.Mul64(h, n)
	return hi
}

// Family is a family of k independent hash functions mapping keys to [0, n).
// The zero value is not usable; construct with NewFamily.
type Family struct {
	seeds []uint64
	n     uint64
}

// NewFamily derives k independent hash functions with range [0, n) from a
// single master seed. It panics if k <= 0 or n == 0, which indicate
// programmer error rather than runtime conditions.
func NewFamily(masterSeed uint64, k int, n uint64) *Family {
	if k <= 0 {
		panic("hashutil: NewFamily requires k > 0")
	}
	if n == 0 {
		panic("hashutil: NewFamily requires n > 0")
	}
	seeds := make([]uint64, k)
	s := masterSeed
	for i := range seeds {
		// splitmix64 stream: uncorrelated seeds from one master seed.
		s += 0x9e3779b97f4a7c15
		seeds[i] = Mix64(s)
	}
	return &Family{seeds: seeds, n: n}
}

// Seed returns the seed of function i: At(i, key) is
// Range(Hash64(Seed(i), key), N()), which a caller can inline on a hot
// path that At's call would dominate.
func (f *Family) Seed(i int) uint64 { return f.seeds[i] }

// K returns the number of functions in the family.
func (f *Family) K() int { return len(f.seeds) }

// N returns the size of the output range.
func (f *Family) N() uint64 { return f.n }

// At evaluates the i-th function on key, returning a value in [0, N()).
func (f *Family) At(i int, key uint64) uint64 {
	return Range(Hash64(f.seeds[i], key), f.n)
}

// All evaluates every function on key, appending into dst to avoid
// per-call allocation in hot loops. It returns the extended slice.
func (f *Family) All(dst []uint64, key uint64) []uint64 {
	for i := range f.seeds {
		dst = append(dst, f.At(i, key))
	}
	return dst
}

// RNG is a tiny, fast, deterministic pseudo-random generator (xoshiro-style
// splitmix stream) used by workload generators. math/rand would also work,
// but a local implementation keeps every byte of randomness under our
// control and identical across Go versions. The stream is counter-based:
// draw k (from 1) is Mix64(seed + k·γ), so Skip can jump ahead in O(1).
type RNG struct {
	state uint64
}

// gamma is the stream's increment, the golden-ratio constant γ.
const gamma = 0x9e3779b97f4a7c15

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	r.state += gamma
	return Mix64(r.state)
}

// Next returns the next draw, as Uint64 would, and the generator after
// it. A loop that takes its generator by value this way can keep the
// state in a register.
func (r RNG) Next() (uint64, RNG) {
	r.state += gamma
	return Mix64(r.state), r
}

// Skip advances the stream past its next k draws, as k Uint64 calls
// would, in O(1): the draws that follow are the ones after them.
func (r *RNG) Skip(k uint64) {
	r.state += k * gamma
}

// Uint64n returns a value uniform in [0, n). n must be > 0.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("hashutil: Uint64n requires n > 0")
	}
	return Range(r.Uint64(), n)
}

// Intn returns a value uniform in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a value uniform in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Below returns the integer threshold k for which Float64() < p
// holds exactly when Uint64()>>11 < k, for p in [0, 1]: k = ⌈p·2^53⌉.
// Both sides of Float64's test are exact — Float64 is j/2^53 for the
// 53-bit j, and p·2^53 only shifts p's exponent — so a generator that
// tests one fixed probability per draw can compare integers instead.
func Float64Below(p float64) uint64 {
	return uint64(math.Ceil(p * (1 << 53)))
}
