package findany

import (
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/rng"
	"kkt/internal/spanning"
	"kkt/internal/tree"
)

// fragmentNet marks a spanning tree of the induced subgraph on frag and
// returns the network plus the set of true cut edges.
func fragmentNet(t *testing.T, g *graph.Graph, frag []uint32) (*congest.Network, *tree.Protocol, map[uint64]bool) {
	t.Helper()
	inT := make([]bool, g.N+1)
	for _, v := range frag {
		inT[v] = true
	}
	var treeEdges [][2]congest.NodeID
	uf := spanning.NewUnionFind(g.N)
	for _, e := range g.Edges() {
		if inT[e.A] && inT[e.B] && uf.Union(e.A, e.B) {
			treeEdges = append(treeEdges, [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)})
		}
	}
	if len(treeEdges) != len(frag)-1 {
		t.Fatalf("fragment %v not connected", frag)
	}
	nw := congest.NewNetwork(g)
	nw.SetForest(treeEdges)
	cut := make(map[uint64]bool)
	for _, ei := range spanning.CutEdges(g, inT) {
		cut[g.EdgeNum(g.Edge(ei))] = true
	}
	return nw, tree.Attach(nw), cut
}

func runFindAny(t *testing.T, nw *congest.Network, pr *tree.Protocol, root congest.NodeID, seed uint64, cfg Config) Result {
	t.Helper()
	m := NewMachine()
	m.Reset(pr, root, seed, cfg)
	nw.SpawnStep("findany", 0, 0, m)
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	return m.res
}

func growFragment(r *rng.RNG, g *graph.Graph, size int) []uint32 {
	start := uint32(r.Intn(g.N) + 1)
	seen := map[uint32]bool{start: true}
	frontier := []uint32{start}
	out := []uint32{start}
	for len(out) < size && len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		for _, nb := range g.Neighbors(v) {
			if !seen[nb] && len(out) < size {
				seen[nb] = true
				out = append(out, nb)
				frontier = append(frontier, nb)
			}
		}
	}
	return out
}

func TestFindAnyReturnsACutEdge(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 30; trial++ {
		g := graph.GNM(r, 24, 60, 100, graph.UniformWeights(r, 100))
		frag := growFragment(r, g, 2+r.Intn(12))
		nw, pr, cut := fragmentNet(t, g, frag)
		res := runFindAny(t, nw, pr, congest.NodeID(frag[0]), uint64(trial)*3+1, Defaults(Full))
		if len(cut) == 0 {
			if res.Reason != tree.EmptyCut {
				t.Fatalf("trial %d: want empty cut, got %v", trial, res.Reason)
			}
			continue
		}
		if res.Reason != tree.FoundEdge {
			t.Fatalf("trial %d: reason = %v, want found (w.h.p.)", trial, res.Reason)
		}
		if !cut[res.EdgeNum] {
			t.Fatalf("trial %d: returned edge {%d,%d} does not leave the tree", trial, res.A, res.B)
		}
	}
}

func TestFindAnyEmptyCutWholeGraph(t *testing.T) {
	r := rng.New(5)
	g := graph.GNM(r, 20, 50, 10, graph.UniformWeights(r, 10))
	frag := make([]uint32, g.N)
	for i := range frag {
		frag[i] = uint32(i + 1)
	}
	nw, pr, cut := fragmentNet(t, g, frag)
	if len(cut) != 0 {
		t.Fatal("whole graph should have no cut edges")
	}
	res := runFindAny(t, nw, pr, 7, 9, Defaults(Full))
	if res.Reason != tree.EmptyCut {
		t.Fatalf("reason = %v, want empty", res.Reason)
	}
}

func TestFindAnySingleton(t *testing.T) {
	g := graph.MustNew(2, 5)
	g.MustAddEdge(1, 2, 3)
	nw := congest.NewNetwork(g)
	pr := tree.Attach(nw)
	res := runFindAny(t, nw, pr, 1, 4, Defaults(Full))
	if res.Reason != tree.FoundEdge || res.A != 1 || res.B != 2 {
		t.Fatalf("got %v {%d,%d}, want found {1,2}", res.Reason, res.A, res.B)
	}
}

func TestFindAnySingleCutEdge(t *testing.T) {
	// A bridge between two cliques; T = one clique: exactly one cut edge.
	g := graph.Barbell(4, 0, 10, graph.UnitWeights())
	frag := []uint32{1, 2, 3, 4}
	nw, pr, cut := fragmentNet(t, g, frag)
	if len(cut) != 1 {
		t.Fatalf("want exactly 1 cut edge, have %d", len(cut))
	}
	res := runFindAny(t, nw, pr, 1, 21, Defaults(Full))
	if res.Reason != tree.FoundEdge || !cut[res.EdgeNum] {
		t.Fatalf("failed to find the bridge: %v", res.Reason)
	}
}

func TestFindAnyCappedNeverWrong(t *testing.T) {
	r := rng.New(23)
	succ, trials := 0, 60
	for trial := 0; trial < trials; trial++ {
		g := graph.GNM(r, 16, 36, 50, graph.UniformWeights(r, 50))
		frag := growFragment(r, g, 6)
		nw, pr, cut := fragmentNet(t, g, frag)
		if len(cut) == 0 {
			trials--
			continue
		}
		res := runFindAny(t, nw, pr, congest.NodeID(frag[0]), uint64(trial)*13+5, Defaults(Capped))
		switch res.Reason {
		case tree.FoundEdge:
			if !cut[res.EdgeNum] {
				t.Fatalf("trial %d: Capped returned a non-cut edge", trial)
			}
			succ++
		case tree.GaveUp:
			// allowed with probability <= 15/16 per attempt
		case tree.EmptyCut:
			t.Fatalf("trial %d: false empty (prob ~ n^-c)", trial)
		}
	}
	// Lemma 5: success probability >= 1/16; observed rate is far higher
	// in practice. Require at least 1/16 over the trials.
	if float64(succ) < float64(trials)/16 {
		t.Errorf("FindAny-C succeeded %d/%d times, below 1/16", succ, trials)
	}
}

func TestFindAnyConstantBroadcasts(t *testing.T) {
	// FindAny uses an expected O(1) number of B&Es: assert the attempt
	// counter stays small across seeds on a fixed instance.
	r := rng.New(31)
	g := graph.GNM(r, 40, 120, 100, graph.UniformWeights(r, 100))
	frag := growFragment(r, g, 20)
	totalAttempts := 0
	const runs = 20
	for i := 0; i < runs; i++ {
		nw, pr, cut := fragmentNet(t, g, frag)
		if len(cut) == 0 {
			t.Skip("fragment spans graph")
		}
		res := runFindAny(t, nw, pr, congest.NodeID(frag[0]), uint64(i)+400, Defaults(Full))
		if res.Reason != tree.FoundEdge {
			t.Fatalf("run %d failed: %v", i, res.Reason)
		}
		totalAttempts += res.Stats.Attempts
	}
	if avg := float64(totalAttempts) / runs; avg > 16 {
		t.Errorf("average attempts %.1f exceeds the expected-16 bound", avg)
	}
}

func TestFindAnyMessageLinearInTree(t *testing.T) {
	r := rng.New(41)
	g := graph.GNM(r, 60, 180, 100, graph.UniformWeights(r, 100))
	frag := growFragment(r, g, 30)
	nw, pr, _ := fragmentNet(t, g, frag)
	res := runFindAny(t, nw, pr, congest.NodeID(frag[0]), 51, Defaults(Full))
	if res.Reason != tree.FoundEdge {
		t.Fatalf("findany failed: %v", res.Reason)
	}
	c := nw.Counters()
	// B&Es: 1 survey + HP tests + 3 per attempt, each 2 msgs per tree edge.
	bes := 1 + res.Stats.HPTests + 3*res.Stats.Attempts
	bound := uint64(bes * 2 * (len(frag) - 1))
	if c.Messages > bound {
		t.Errorf("messages = %d, bound %d", c.Messages, bound)
	}
}
