package spanning

import (
	"sort"
	"testing"

	"kkt/internal/graph"
	"kkt/internal/rng"
)

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 {
		t.Fatalf("initial sets = %d", uf.Sets())
	}
	if !uf.Union(1, 2) || !uf.Union(3, 4) {
		t.Fatal("fresh unions failed")
	}
	if uf.Union(2, 1) {
		t.Fatal("repeated union succeeded")
	}
	if !uf.Same(1, 2) || uf.Same(1, 3) {
		t.Fatal("Same wrong")
	}
	uf.Union(2, 3)
	if !uf.Same(1, 4) {
		t.Fatal("transitivity broken")
	}
	if uf.Sets() != 2 { // {1,2,3,4}, {5}
		t.Fatalf("sets = %d, want 2", uf.Sets())
	}
}

func TestKruskalHandComputed(t *testing.T) {
	// Square 1-2-3-4 with diagonal: MST is the three cheapest
	// non-cycle-closing edges.
	g := graph.MustNew(4, 100)
	g.MustAddEdge(1, 2, 1) // idx 0
	g.MustAddEdge(2, 3, 2) // idx 1
	g.MustAddEdge(3, 4, 3) // idx 2
	g.MustAddEdge(4, 1, 4) // idx 3
	g.MustAddEdge(1, 3, 5) // idx 4
	got := Kruskal(g)
	want := []int{0, 1, 2}
	if len(got) != 3 {
		t.Fatalf("Kruskal returned %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Kruskal = %v, want %v", got, want)
		}
	}
}

func TestKruskalTieBreaksByEdgeNumber(t *testing.T) {
	// all raw weights equal: composite order = edge-number order, so the
	// MST is still unique and deterministic.
	g := graph.MustNew(3, 5)
	g.MustAddEdge(1, 2, 3)
	g.MustAddEdge(1, 3, 3)
	g.MustAddEdge(2, 3, 3)
	got := Kruskal(g)
	// edge numbers: {1,2} < {1,3} < {2,3}; MST takes the two smallest.
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("Kruskal = %v, want [0 1]", got)
	}
}

func TestKruskalIsMinimumExhaustive(t *testing.T) {
	// Compare total weight against brute force over all spanning trees
	// on small random graphs.
	r := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		g := graph.GNM(r, 6, 9, 50, graph.UniformWeights(r, 50))
		mst := Kruskal(g)
		if err := IsSpanningForest(g, mst); err != nil {
			t.Fatal(err)
		}
		bestW := bruteForceMinSpanningWeight(g)
		if got := ForestWeight(g, mst); got != bestW {
			t.Fatalf("Kruskal weight %d, brute force %d", got, bestW)
		}
	}
}

// TestKruskalMatchesCycleRule compares Kruskal's edge set with the cycle
// rule on small graphs whose raw weights tie often: an edge belongs to the
// MSF iff the strictly lighter edges (by composite weight) do not already
// connect its endpoints. The reference sorts nothing.
func TestKruskalMatchesCycleRule(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(8)
		m := r.Intn(n*(n-1)/2 + 1)
		g := graph.MustNew(n, 3)
		for g.M() < m {
			a, b := uint32(r.Intn(n)+1), uint32(r.Intn(n)+1)
			if a != b && !g.HasEdge(a, b) {
				g.MustAddEdge(a, b, r.Range(1, 3))
			}
		}
		var want []int
		for i, e := range g.Edges() {
			uf := NewUnionFind(n)
			for _, f := range g.Edges() {
				if g.Composite(f) < g.Composite(e) {
					uf.Union(f.A, f.B)
				}
			}
			if !uf.Same(e.A, e.B) {
				want = append(want, i)
			}
		}
		got := Kruskal(g)
		if len(got) != len(want) {
			t.Fatalf("trial %d: Kruskal = %v, cycle rule = %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: Kruskal = %v, cycle rule = %v", trial, got, want)
			}
		}
	}
}

// bruteForceMinSpanningWeight enumerates all (n-1)-subsets of edges.
func bruteForceMinSpanningWeight(g *graph.Graph) uint64 {
	m := g.M()
	n := g.N
	best := ^uint64(0)
	var rec func(start, chosen int, picked []int)
	rec = func(start, chosen int, picked []int) {
		if chosen == n-1 {
			uf := NewUnionFind(n)
			for _, ei := range picked {
				e := g.Edge(ei)
				if !uf.Union(e.A, e.B) {
					return
				}
			}
			if w := ForestWeight(g, picked); w < best {
				best = w
			}
			return
		}
		for i := start; i < m; i++ {
			rec(i+1, chosen+1, append(picked, i))
		}
	}
	rec(0, 0, nil)
	return best
}

func TestBFSForestSpans(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 10; trial++ {
		g := graph.GNM(r, 30, 60, 10, graph.UniformWeights(r, 10))
		f := BFSForest(g)
		if err := IsSpanningForest(g, f); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIsSpanningForestRejectsCycle(t *testing.T) {
	g := graph.MustNew(3, 5)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(1, 3, 1)
	if err := IsSpanningForest(g, []int{0, 1, 2}); err == nil {
		t.Error("cycle accepted")
	}
}

func TestIsSpanningForestRejectsNonMaximal(t *testing.T) {
	g := graph.MustNew(3, 5)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	if err := IsSpanningForest(g, []int{0}); err == nil {
		t.Error("non-spanning forest accepted")
	}
}

func TestIsMSFRejectsSuboptimal(t *testing.T) {
	g := graph.MustNew(3, 5)
	g.MustAddEdge(1, 2, 1) // 0
	g.MustAddEdge(2, 3, 2) // 1
	g.MustAddEdge(1, 3, 3) // 2
	if err := IsMSF(g, []int{0, 1}); err != nil {
		t.Errorf("true MSF rejected: %v", err)
	}
	if err := IsMSF(g, []int{0, 2}); err == nil {
		t.Error("suboptimal spanning tree accepted as MSF")
	}
}

func TestComponentsAndDisconnected(t *testing.T) {
	g := graph.MustNew(5, 5)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(4, 5, 1)
	labels, n := Components(g)
	if n != 3 { // {1,2}, {3}, {4,5}
		t.Fatalf("components = %d, want 3", n)
	}
	if labels[1] != labels[2] || labels[4] != labels[5] || labels[1] == labels[3] {
		t.Errorf("labels wrong: %v", labels)
	}
	// Kruskal on a disconnected graph gives a forest with one tree per
	// component.
	msf := Kruskal(g)
	if len(msf) != 2 {
		t.Fatalf("MSF size %d, want 2", len(msf))
	}
	if err := IsMSF(g, msf); err != nil {
		t.Error(err)
	}
}

func TestCutEdges(t *testing.T) {
	g := graph.MustNew(4, 5)
	g.MustAddEdge(1, 2, 1) // inside T
	g.MustAddEdge(2, 3, 2) // cut
	g.MustAddEdge(3, 4, 3) // outside
	g.MustAddEdge(1, 4, 4) // cut
	inT := []bool{false, true, true, false, false}
	cut := CutEdges(g, inT)
	sort.Ints(cut)
	if len(cut) != 2 || cut[0] != 1 || cut[1] != 3 {
		t.Fatalf("cut = %v, want [1 3]", cut)
	}
	if MinCutEdge(g, inT) != 1 {
		t.Fatalf("min cut edge = %d, want 1", MinCutEdge(g, inT))
	}
	// empty cut
	all := []bool{false, true, true, true, true}
	if MinCutEdge(g, all) != -1 {
		t.Error("empty cut should give -1")
	}
}

func TestTreePathMax(t *testing.T) {
	g := graph.MustNew(5, 100)
	g.MustAddEdge(1, 2, 10) // 0
	g.MustAddEdge(2, 3, 50) // 1
	g.MustAddEdge(3, 4, 20) // 2
	g.MustAddEdge(4, 5, 5)  // 3
	forest := []int{0, 1, 2, 3}
	if got := TreePathMax(g, forest, 1, 5); got != 1 {
		t.Errorf("path max = edge %d, want 1", got)
	}
	if got := TreePathMax(g, forest, 3, 4); got != 2 {
		t.Errorf("path max = edge %d, want 2", got)
	}
	// disconnected query
	if got := TreePathMax(g, []int{0}, 1, 5); got != -1 {
		t.Errorf("disconnected path max = %d, want -1", got)
	}
}
