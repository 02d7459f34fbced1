package primes

import (
	"testing"
	"testing/quick"
)

func TestIsPrimeSmall(t *testing.T) {
	// Sieve up to 10000 and compare exhaustively.
	const n = 10000
	composite := make([]bool, n+1)
	for i := 2; i*i <= n; i++ {
		if !composite[i] {
			for j := i * i; j <= n; j += i {
				composite[j] = true
			}
		}
	}
	for i := uint64(0); i <= n; i++ {
		want := i >= 2 && !composite[i]
		if got := IsPrime(i); got != want {
			t.Fatalf("IsPrime(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestIsPrimeKnownLarge(t *testing.T) {
	tests := []struct {
		n    uint64
		want bool
	}{
		{MersennePrime61, true},
		{MersennePrime61 - 1, false},
		{18446744073709551557, true},  // largest uint64 prime
		{18446744073709551615, false}, // 2^64-1 = 3*5*17*257*641*65537*6700417
		{1<<62 - 57, true},
		{4611686018427387904, false}, // 2^62
		{2147483647, true},           // 2^31-1 Mersenne
		{3215031751, false},          // strong pseudoprime to bases 2,3,5,7
		{3825123056546413051, false}, // strong pseudoprime to bases 2..23
	}
	for _, tt := range tests {
		if got := IsPrime(tt.n); got != tt.want {
			t.Errorf("IsPrime(%d) = %v, want %v", tt.n, got, tt.want)
		}
	}
}

func TestMulModAgainstBigIntSemantics(t *testing.T) {
	f := func(a, b uint64, m uint64) bool {
		if m == 0 {
			m = 1
		}
		got := MulMod(a, b, m)
		// check via 128-bit decomposition: (a*b) mod m computed with
		// schoolbook splitting into 32-bit halves.
		want := slowMulMod(a, b, m)
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// slowMulMod is an independent reference: double-and-add.
func slowMulMod(a, b, m uint64) uint64 {
	a %= m
	var acc uint64
	for b > 0 {
		if b&1 == 1 {
			// acc = (acc + a) mod m without 64-bit overflow
			if acc >= m-a && a > 0 {
				acc -= m - a
			} else {
				acc += a
			}
		}
		// a = 2a mod m without overflow
		if a >= m-a {
			a = a - (m - a)
		} else {
			a = a + a
		}
		b >>= 1
	}
	return acc
}

func TestPowMod(t *testing.T) {
	tests := []struct{ a, e, m, want uint64 }{
		{2, 10, 1000, 24},
		{3, 0, 7, 1},
		{5, 1, 7, 5},
		{7, 100, 13, PowModNaive(7, 100, 13)},
		{0, 0, 5, 1},
		{10, 5, 1, 0},
	}
	for _, tt := range tests {
		if got := PowMod(tt.a, tt.e, tt.m); got != tt.want {
			t.Errorf("PowMod(%d,%d,%d) = %d, want %d", tt.a, tt.e, tt.m, got, tt.want)
		}
	}
}

// PowModNaive is an independent O(e) reference for small exponents.
func PowModNaive(a, e, m uint64) uint64 {
	r := uint64(1) % m
	for i := uint64(0); i < e; i++ {
		r = (r * a) % m
	}
	return r
}

func TestFermatOnMersenne61(t *testing.T) {
	// a^(p-1) = 1 mod p for prime p: spot-check the default modulus.
	p := MersennePrime61
	for _, a := range []uint64{2, 3, 12345678901234567, p - 2} {
		if got := PowMod(a, p-1, p); got != 1 {
			t.Errorf("Fermat failed for a=%d: got %d", a, got)
		}
	}
}
