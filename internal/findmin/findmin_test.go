package findmin

import (
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/rng"
	"kkt/internal/spanning"
	"kkt/internal/tree"
)

// buildFragmentNet marks the MSF edges of g restricted to the node set
// frag (given as a sorted list) and returns the network plus the expected
// minimum cut edge (or -1).
func fragmentNet(t *testing.T, g *graph.Graph, frag []uint32) (*congest.Network, *tree.Protocol, int) {
	t.Helper()
	inT := make([]bool, g.N+1)
	for _, v := range frag {
		inT[v] = true
	}
	// spanning tree of the induced subgraph (greedy over induced edges)
	var treeEdges [][2]congest.NodeID
	uf := spanning.NewUnionFind(g.N)
	for _, e := range g.Edges() {
		if inT[e.A] && inT[e.B] && uf.Union(e.A, e.B) {
			treeEdges = append(treeEdges, [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)})
		}
	}
	if len(treeEdges) != len(frag)-1 {
		t.Fatalf("fragment %v not connected in g", frag)
	}
	nw := congest.NewNetwork(g)
	nw.SetForest(treeEdges)
	return nw, tree.Attach(nw), spanning.MinCutEdge(g, inT)
}

func runFindMin(t *testing.T, nw *congest.Network, pr *tree.Protocol, root congest.NodeID, seed uint64, cfg Config) Result {
	t.Helper()
	m := NewMachine()
	m.Reset(pr, root, seed, cfg)
	nw.SpawnStep("findmin", 0, 0, m)
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	return m.res
}

func TestFindMinOnRandomFragments(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 25; trial++ {
		g := graph.GNM(r, 24, 60, 1000, graph.UniformWeights(r, 1000))
		// random fragment of size 2..12 grown from a random node
		frag := growFragment(r, g, 2+r.Intn(11))
		nw, pr, wantIdx := fragmentNet(t, g, frag)
		res := runFindMin(t, nw, pr, congest.NodeID(frag[0]), uint64(trial)+100, Defaults(Full))
		if wantIdx < 0 {
			if res.Reason != tree.EmptyCut {
				t.Fatalf("trial %d: want empty cut, got %v", trial, res.Reason)
			}
			continue
		}
		want := g.Edge(wantIdx)
		if res.Reason != tree.FoundEdge {
			t.Fatalf("trial %d: reason = %v, want found (w.h.p.)", trial, res.Reason)
		}
		if res.A != congest.NodeID(want.A) || res.B != congest.NodeID(want.B) {
			t.Fatalf("trial %d: found {%d,%d}, want {%d,%d}", trial, res.A, res.B, want.A, want.B)
		}
		if res.Composite != g.Composite(want) {
			t.Fatalf("trial %d: composite mismatch", trial)
		}
	}
}

// growFragment BFS-grows a connected node set of the requested size.
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

func TestFindMinWholeGraphTreeIsEmpty(t *testing.T) {
	r := rng.New(3)
	g := graph.GNM(r, 15, 40, 100, graph.UniformWeights(r, 100))
	frag := make([]uint32, g.N)
	for i := range frag {
		frag[i] = uint32(i + 1)
	}
	nw, pr, wantIdx := fragmentNet(t, g, frag)
	if wantIdx != -1 {
		t.Fatal("whole graph should have an empty cut")
	}
	res := runFindMin(t, nw, pr, 1, 9, Defaults(Full))
	if res.Reason != tree.EmptyCut {
		t.Fatalf("reason = %v, want empty", res.Reason)
	}
}

func TestFindMinSingletonFragment(t *testing.T) {
	g := graph.MustNew(3, 10)
	g.MustAddEdge(1, 2, 5)
	g.MustAddEdge(2, 3, 2)
	g.MustAddEdge(1, 3, 7)
	nw := congest.NewNetwork(g)
	pr := tree.Attach(nw) // nothing marked: {2} alone
	res := runFindMin(t, nw, pr, 2, 5, Defaults(Full))
	if res.Reason != tree.FoundEdge {
		t.Fatalf("reason = %v", res.Reason)
	}
	// lightest edge at node 2 is {2,3} w=2
	if res.A != 2 || res.B != 3 {
		t.Errorf("found {%d,%d}, want {2,3}", res.A, res.B)
	}
}

func TestFindMinTieBreaksOnEdgeNumber(t *testing.T) {
	// all candidate weights equal: composite order decides; the minimum
	// is the smallest edge number = {1,3} (vs {2,4} and {2,3}... check).
	g := graph.MustNew(4, 10)
	g.MustAddEdge(1, 2, 1) // tree edge
	g.MustAddEdge(1, 3, 5)
	g.MustAddEdge(2, 3, 5)
	g.MustAddEdge(2, 4, 5)
	nw := congest.NewNetwork(g)
	nw.SetForest([][2]congest.NodeID{{1, 2}})
	pr := tree.Attach(nw)
	res := runFindMin(t, nw, pr, 1, 11, Defaults(Full))
	if res.Reason != tree.FoundEdge || res.A != 1 || res.B != 3 {
		t.Errorf("got %v {%d,%d}, want found {1,3}", res.Reason, res.A, res.B)
	}
}

func TestFindMinCappedUsuallySucceeds(t *testing.T) {
	r := rng.New(13)
	succ, trials := 0, 40
	for trial := 0; trial < trials; trial++ {
		g := graph.GNM(r, 16, 40, 200, graph.UniformWeights(r, 200))
		frag := growFragment(r, g, 5)
		nw, pr, wantIdx := fragmentNet(t, g, frag)
		if wantIdx < 0 {
			trials--
			continue
		}
		res := runFindMin(t, nw, pr, congest.NodeID(frag[0]), uint64(trial)*7+1, Defaults(Capped))
		switch res.Reason {
		case tree.FoundEdge:
			want := g.Edge(wantIdx)
			if res.A != congest.NodeID(want.A) || res.B != congest.NodeID(want.B) {
				t.Fatalf("trial %d: Capped returned a non-minimum edge {%d,%d}, want {%d,%d}",
					trial, res.A, res.B, want.A, want.B)
			}
			succ++
		case tree.GaveUp:
			// allowed with probability <= 1/3
		case tree.EmptyCut:
			t.Fatalf("trial %d: false empty-cut (prob ~ n^-c)", trial)
		}
	}
	// Lemma 2: success probability >= 2/3 - n^-c. Require > 1/2 over 40.
	if float64(succ) < 0.5*float64(trials) {
		t.Errorf("FindMin-C succeeded only %d/%d times", succ, trials)
	}
}

func TestFindMinBinaryLanesAblation(t *testing.T) {
	// 2 lanes = binary search: still correct, just more iterations.
	r := rng.New(23)
	g := graph.GNM(r, 20, 50, 500, graph.UniformWeights(r, 500))
	frag := growFragment(r, g, 8)
	nw, pr, wantIdx := fragmentNet(t, g, frag)
	if wantIdx < 0 {
		t.Skip("no cut edge in this draw")
	}
	cfg := Defaults(Full)
	cfg.Lanes = 2
	res := runFindMin(t, nw, pr, congest.NodeID(frag[0]), 77, cfg)
	want := g.Edge(wantIdx)
	if res.Reason != tree.FoundEdge || res.A != congest.NodeID(want.A) || res.B != congest.NodeID(want.B) {
		t.Fatalf("binary-lane FindMin wrong: %v {%d,%d}", res.Reason, res.A, res.B)
	}
}

func TestFindMinMessageScaling(t *testing.T) {
	// On a fragment of size s, one FindMin costs O(s log n / log log n)
	// messages; check messages stay well below s * lg(maxWt) * 2 ... i.e.
	// sanity-check the per-broadcast accounting rather than constants:
	// messages should be ~ (2 msgs per tree edge) * (#B&Es).
	r := rng.New(29)
	g := graph.GNM(r, 64, 200, 1000, graph.UniformWeights(r, 1000))
	frag := growFragment(r, g, 32)
	nw, pr, wantIdx := fragmentNet(t, nwGraph(g), frag)
	_ = wantIdx
	before := nw.Counters()
	res := runFindMin(t, nw, pr, congest.NodeID(frag[0]), 31, Defaults(Full))
	diff := nw.Counters().Sub(before)
	bes := res.Stats.Iterations + res.Stats.HPTests + 1 // +1 survey
	maxPerBE := uint64(2 * (len(frag) - 1))
	if diff.Messages > uint64(bes)*maxPerBE {
		t.Errorf("messages %d exceed %d B&Es x %d", diff.Messages, bes, maxPerBE)
	}
	if res.Reason == tree.GaveUp {
		t.Error("FindMin gave up (prob ~ n^-c)")
	}
}

// nwGraph is an identity helper kept for readability at call sites.
func nwGraph(g *graph.Graph) *graph.Graph { return g }

func TestIterationBudgets(t *testing.T) {
	full := iterationBudget(Config{Variant: Full, C: 2, Lanes: 64}, 1024, 1<<30)
	capped := iterationBudget(Config{Variant: Capped, C: 2, Lanes: 64}, 1024, 1<<30)
	if full <= 0 || capped <= 0 {
		t.Fatal("non-positive budgets")
	}
	// Full's budget includes the (c/q) lg n term; Capped's does not.
	if capped >= full {
		t.Errorf("capped budget %d >= full budget %d", capped, full)
	}
	// Budget grows when lanes shrink (binary search does more rounds).
	bin := iterationBudget(Config{Variant: Capped, C: 2, Lanes: 2}, 1024, 1<<30)
	if bin <= capped {
		t.Errorf("binary budget %d should exceed 64-lane budget %d", bin, capped)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	g := graph.Path(2, 5, graph.UnitWeights())
	nw := congest.NewNetwork(g)
	pr := tree.Attach(nw)
	m := NewMachine()
	m.Reset(pr, 1, 1, Config{Variant: Full, Lanes: 1})
	nw.SpawnStep("bad", 0, 0, m)
	if err := nw.Run(); err == nil {
		t.Error("lanes=1 accepted")
	}
}
