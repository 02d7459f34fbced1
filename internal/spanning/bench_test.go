package spanning

import (
	"testing"

	"kkt/internal/graph"
	"kkt/internal/rng"
)

// BenchmarkKruskal computes the reference MSF that validates every build,
// on the dense ladder's gnm with n = 1024 and m = n²/8.
func BenchmarkKruskal(b *testing.B) {
	const n = 1024
	r := rng.New(1)
	g := graph.GNM(r, n, n*n/8, 1<<20, graph.UniformWeights(r.Split(), 1<<20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Kruskal(g)
	}
}
