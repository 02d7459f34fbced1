package graph

import (
	"testing"

	"kkt/internal/rng"
)

// BenchmarkGNMDense generates one rung of the dense scaling ladder, gnm
// with n = 1024 and m = n²/8: a random tree plus ~130k chords, each draw
// one membership probe against an index sized for m up front.
func BenchmarkGNMDense(b *testing.B) {
	const n = 1024
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := rng.New(uint64(i) + 1)
		GNM(r, n, n*n/8, 1<<20, UniformWeights(r.Split(), 1<<20))
	}
}
