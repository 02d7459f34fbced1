// Package primes provides deterministic primality testing for 64-bit
// integers and the default modulus. HP-TestOut (paper §2.2) needs a prime
// p > max{maxEdgeNum(T), B/eps(n)} to drive Schwartz-Zippel polynomial
// identity testing over Z_p; this package supplies it.
package primes

import "math/bits"

// MersennePrime61 is 2^61 - 1, the Mersenne prime used as the default
// modulus for HP-TestOut. The paper notes (§2.2) that when the word size w
// is known to all nodes, p may be a predetermined value with |p| < w;
// 2^61-1 exceeds every edge number the layout can produce (< 2^60) and
// keeps mulmod within uint64 intermediate range.
const MersennePrime61 = uint64(1)<<61 - 1

// mrBases is a deterministic witness set: testing against these seven bases
// is known to be correct for all n < 3.4e24, which covers uint64.
var mrBases = [...]uint64{2, 325, 9375, 28178, 450775, 9780504, 1795265022}

// IsPrime reports whether n is prime, deterministically for all uint64.
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n == p {
			return true
		}
		if n%p == 0 {
			return false
		}
	}
	// Write n-1 = d * 2^r with d odd.
	d := n - 1
	r := uint(bits.TrailingZeros64(d))
	d >>= r
	for _, a := range mrBases {
		a %= n
		if a == 0 {
			continue
		}
		if !millerRabinWitness(n, a, d, r) {
			return false
		}
	}
	return true
}

// millerRabinWitness returns false if a proves n composite.
func millerRabinWitness(n, a, d uint64, r uint) bool {
	x := PowMod(a, d, n)
	if x == 1 || x == n-1 {
		return true
	}
	for i := uint(1); i < r; i++ {
		x = MulMod(x, x, n)
		if x == n-1 {
			return true
		}
	}
	return false
}

// MulMod returns a*b mod m using a 128-bit intermediate, valid for all
// uint64 inputs with m > 0.
func MulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi%m, lo, m)
	return rem
}

// PowMod returns a^e mod m by square-and-multiply, valid for all uint64
// inputs with m > 0.
func PowMod(a, e, m uint64) uint64 {
	if m == 1 {
		return 0
	}
	result := uint64(1)
	a %= m
	for e > 0 {
		if e&1 == 1 {
			result = MulMod(result, a, m)
		}
		a = MulMod(a, a, m)
		e >>= 1
	}
	return result
}
