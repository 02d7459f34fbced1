package congest

import (
	"cmp"
	"slices"
	"testing"

	"kkt/internal/graph"
	"kkt/internal/rng"
)

// benchNoop is the interned no-op kind shared by the send benchmarks.
var benchNoop = Kind("bench.noop")

// BenchmarkSend measures the Send -> schedule -> deliver cycle on the
// synchronous scheduler: the per-message hot path of every protocol run.
func BenchmarkSend(b *testing.B) {
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g)
	nw.RegisterHandler(benchNoop, func(*Network, *NodeState, *Message) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Send(1, 2, benchNoop, 0, 8, nil)
		if i%1024 == 1023 || i == b.N-1 {
			if err := nw.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSendAsync is BenchmarkSend under the asynchronous scheduler:
// it additionally exercises the delay draw, per-link FIFO bookkeeping and
// the priority queue.
func BenchmarkSendAsync(b *testing.B) {
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g, WithAsync(4), WithSeed(7))
	nw.RegisterHandler(benchNoop, func(*Network, *NodeState, *Message) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Send(1, 2, benchNoop, 0, 8, nil)
		if i%1024 == 1023 || i == b.N-1 {
			if err := nw.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDeliverScattered is the delivery hot path at scale: about 2^17
// nodes, so node state does not fit in cache, and each batch of 1024
// messages travels random links to random destinations, as a large
// protocol round does. BenchmarkSend's two nodes stay cache-resident and
// cannot see what delivery costs in memory traffic.
func BenchmarkDeliverScattered(b *testing.B) {
	const n, batch = 1 << 17, 1024
	r := rng.New(3)
	g := graph.GNM(r, n, 3*n, 1024, graph.UniformWeights(r, 1024))
	nw := NewNetwork(g)
	nw.RegisterHandler(benchNoop, func(*Network, *NodeState, *Message) {})
	// Random directed links, drawn up front so the timed loop only sends.
	links := make([][2]NodeID, 1<<16)
	for i := range links {
		e := g.Edge(r.Intn(g.M()))
		links[i] = [2]NodeID{NodeID(e.A), NodeID(e.B)}
		if r.Intn(2) == 1 {
			links[i] = [2]NodeID{NodeID(e.B), NodeID(e.A)}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l := links[i&(len(links)-1)]
		nw.Send(l[0], l[1], benchNoop, 0, 8, nil)
		if i%batch == batch-1 || i == b.N-1 {
			if err := nw.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkNewNetwork measures network construction on a dense graph,
// K96: two passes over the half-edges of one backing array.
func BenchmarkNewNetwork(b *testing.B) {
	g := graph.Complete(96, 1024, graph.UnitWeights())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewNetwork(g)
	}
}

// BenchmarkNewNetworkGNM measures the rebuild that opens every serve
// epoch on gnm 20k/60k: the graph from its sorted edge list, as
// serve.State.Graph builds it, then the network.
func BenchmarkNewNetworkGNM(b *testing.B) {
	const n, m = 20000, 60000
	r := rng.New(1)
	g := graph.GNM(r, n, m, 1<<20, graph.UniformWeights(r, 1<<20))
	edges := slices.Clone(g.Edges())
	slices.SortFunc(edges, func(x, y graph.Edge) int {
		return cmp.Or(cmp.Compare(x.A, y.A), cmp.Compare(x.B, y.B))
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := graph.MustNewCap(n, g.MaxRaw, len(edges))
		for _, e := range edges {
			h.MustAddEdge(e.A, e.B, e.Raw)
		}
		NewNetwork(h)
	}
}
