package tree

import (
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/rng"
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
