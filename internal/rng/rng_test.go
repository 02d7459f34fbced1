package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := New(124)
	same := 0
	a = New(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds nearly identical: %d matches", same)
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(9)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	r := New(77)
	const buckets = 10
	const trials = 100000
	counts := make([]int, buckets)
	for i := 0; i < trials; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := float64(trials) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: %d, want ~%.0f", b, c, want)
		}
	}
}

func TestRangeInclusive(t *testing.T) {
	r := New(3)
	sawLo, sawHi := false, false
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 8)
		if v < 5 || v > 8 {
			t.Fatalf("Range(5,8) = %d", v)
		}
		if v == 5 {
			sawLo = true
		}
		if v == 8 {
			sawHi = true
		}
	}
	if !sawLo || !sawHi {
		t.Error("Range never produced an endpoint")
	}
	if r.Range(7, 7) != 7 {
		t.Error("degenerate range broken")
	}
}

func TestOddUint64(t *testing.T) {
	r := New(11)
	for i := 0; i < 1000; i++ {
		if r.OddUint64()&1 == 0 {
			t.Fatal("OddUint64 returned even")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(13)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(21)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(5)
	s := r.Split()
	// The split stream must not equal the parent stream going forward.
	same := 0
	for i := 0; i < 64; i++ {
		if r.Uint64() == s.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Errorf("split stream tracks parent: %d matches", same)
	}
}

func TestPanicsOnDegenerateArgs(t *testing.T) {
	r := New(1)
	assertPanics(t, "Uint64n(0)", func() { r.Uint64n(0) })
	assertPanics(t, "Intn(0)", func() { r.Intn(0) })
	assertPanics(t, "Range(9,3)", func() { r.Range(9, 3) })
}

func assertPanics(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

// TestSeedMatchesNew checks that re-seeding a used generator in place
// replays New's stream for the same seed.
func TestSeedMatchesNew(t *testing.T) {
	var r RNG
	r.Uint64()
	r.Seed(99)
	want := New(99)
	for i := 0; i < 16; i++ {
		if r.Uint64() != want.Uint64() {
			t.Fatalf("draw %d: Seed(99) diverged from New(99)", i)
		}
	}
}
