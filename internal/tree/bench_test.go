package tree

import (
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/rng"
	"kkt/internal/spanning"
)

// BenchmarkBroadcastEcho is one one-word broadcast-and-echo per op
// (the TestOut shape: a word per node, folded as echoes arrive) over a
// random recursive spanning tree of 2^17 nodes. The tree is about 30
// levels deep, so its rounds carry thousands of messages, far more than
// the engine's delivery warm window; BenchmarkDeliverScattered's
// 1024-message batches never are. Node state, tree slots and messages
// miss cache as they do in a large Borůvka phase.
func BenchmarkBroadcastEcho(b *testing.B) {
	const n = 1 << 17
	r := rng.New(5)
	g := graph.MustNew(n, 1024)
	forest := make([][2]congest.NodeID, 0, n-1)
	for v := 2; v <= n; v++ {
		u := 1 + r.Intn(v-1)
		g.MustAddEdge(uint32(u), uint32(v), 1+uint64(r.Intn(1024)))
		forest = append(forest, [2]congest.NodeID{congest.NodeID(u), congest.NodeID(v)})
	}
	nw := congest.NewNetwork(g)
	nw.SetForest(forest)
	pr := Attach(nw)
	spec := sumSpec()
	waves := func(count int) {
		for i := 0; i < count; i++ {
			got, err := await(nw, pr.StartBroadcastEcho(1, spec))
			if err != nil {
				b.Fatal(err)
			}
			if want := uint64(n) * (n + 1) / 2; got != want {
				b.Errorf("sum = %d, want %d", got, want)
			}
		}
	}
	waves(1) // warm the message free list, the round buffers and the slots
	b.ReportAllocs()
	b.ResetTimer()
	waves(b.N)
}

// boruvkaForest returns the forest Build MST holds, w.h.p., after the
// given number of Borůvka phases: in each, every component adds its
// minimum-weight outgoing edge.
func boruvkaForest(g *graph.Graph, phases int) [][2]congest.NodeID {
	uf := spanning.NewUnionFind(g.N)
	var forest [][2]congest.NodeID
	best := make([]int, g.N+1) // per component root: 1 + its lightest edge
	for range phases {
		clear(best)
		for i, e := range g.Edges() {
			ra, rb := uf.Find(e.A), uf.Find(e.B)
			if ra == rb {
				continue
			}
			for _, root := range [2]uint32{ra, rb} {
				if best[root] == 0 || g.Composite(e) < g.Composite(g.Edge(best[root]-1)) {
					best[root] = i + 1
				}
			}
		}
		for _, bi := range best {
			if bi == 0 {
				continue
			}
			if e := g.Edge(bi - 1); uf.Union(e.A, e.B) {
				forest = append(forest, [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)})
			}
		}
	}
	return forest
}

// BenchmarkRelayout measures one re-layout of gnm 100k/300k: node states
// and half-edge windows moved in place between ID order and the order a
// Borůvka fan-out gives the forest Build MST holds at the start of phase
// 3. Each operation moves all of them one way or the other, on warm
// scratch.
func BenchmarkRelayout(b *testing.B) {
	const n, m = 100000, 300000
	r := rng.New(1)
	g := graph.GNM(r, n, m, 1<<20, graph.UniformWeights(r, 1<<20))
	nw := congest.NewNetwork(g)
	nw.SetForest(boruvkaForest(g, 2))
	pr := Attach(nw)
	elect, err := pr.ElectAll()
	if err != nil {
		b.Fatal(err)
	}
	fan := NewFanout(pr, "bench", "pick", func() *pickSearch { return &pickSearch{nw: nw} }, (*pickSearch).Arm)
	if !fan.fragmentOrder(elect.Leaders) {
		b.Fatal("the leaders do not cover the network")
	}
	orders := [2][]congest.NodeID{fan.order, make([]congest.NodeID, n)}
	for i := range orders[1] {
		orders[1][i] = congest.NodeID(i + 1)
	}
	nw.Relayout(orders[0])
	nw.Relayout(orders[1])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw.Relayout(orders[i&1])
	}
}
