package spanning

import (
	"fmt"
	"slices"
	"sort"

	"kkt/internal/graph"
)

// Kruskal returns the indices (into g.Edges()) of the unique minimum
// spanning forest of g under composite weights. Because composite weights
// are distinct, the MSF is unique and set comparison against a distributed
// run is exact.
func Kruskal(g *graph.Graph) []int {
	// A composite weight ends in the edge number, which names both
	// endpoints, so the sorted composites alone drive the union-find and
	// only the forest's edges need their index looked up.
	comps := make([]uint64, g.M())
	for i, e := range g.Edges() {
		comps[i] = g.Composite(e)
	}
	slices.Sort(comps)
	uf := NewUnionFind(g.N)
	forest := make([]int, 0, g.N-1)
	for _, c := range comps {
		_, num := g.Layout.SplitComposite(c)
		a, b := g.Layout.SplitEdgeNum(num)
		if uf.Union(a, b) {
			forest = append(forest, g.EdgeIndex(a, b))
		}
	}
	sort.Ints(forest)
	return forest
}

// BFSForest returns edge indices of an arbitrary spanning forest (BFS from
// each unvisited node in ID order).
func BFSForest(g *graph.Graph) []int {
	adj := g.Adjacency()
	visited := make([]bool, g.N+1)
	var forest []int
	queue := make([]uint32, 0, g.N)
	for s := 1; s <= g.N; s++ {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], uint32(s))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, ei := range adj[v] {
				e := g.Edge(ei)
				o := e.A
				if o == v {
					o = e.B
				}
				if !visited[o] {
					visited[o] = true
					forest = append(forest, ei)
					queue = append(queue, o)
				}
			}
		}
	}
	sort.Ints(forest)
	return forest
}

// Components returns a component label per node (index 0 unused) and the
// number of components.
func Components(g *graph.Graph) ([]int, int) {
	uf := NewUnionFind(g.N)
	for _, e := range g.Edges() {
		uf.Union(e.A, e.B)
	}
	label := make([]int, g.N+1)
	next := 0
	seen := make(map[uint32]int)
	for v := 1; v <= g.N; v++ {
		r := uf.Find(uint32(v))
		l, ok := seen[r]
		if !ok {
			l = next
			next++
			seen[r] = l
		}
		label[v] = l
	}
	return label, next
}

// IsSpanningForest reports whether the given edge indices form a maximal
// spanning forest of g: acyclic, and connecting every pair of nodes that g
// connects.
func IsSpanningForest(g *graph.Graph, forest []int) error {
	uf := NewUnionFind(g.N)
	for _, ei := range forest {
		if ei < 0 || ei >= g.M() {
			return fmt.Errorf("spanning: edge index %d out of range", ei)
		}
		e := g.Edge(ei)
		if !uf.Union(e.A, e.B) {
			return fmt.Errorf("spanning: cycle through edge {%d,%d}", e.A, e.B)
		}
	}
	// Maximality: forest must connect everything the graph connects.
	gLabel, gComp := Components(g)
	if g.N-len(forest) != gComp {
		return fmt.Errorf("spanning: %d edges gives %d trees, graph has %d components",
			len(forest), g.N-len(forest), gComp)
	}
	// Same partition: every graph edge must stay within one forest tree.
	for _, e := range g.Edges() {
		if uf.Find(e.A) != uf.Find(e.B) {
			return fmt.Errorf("spanning: nodes %d,%d connected in graph (label %d) but not in forest",
				e.A, e.B, gLabel[e.A])
		}
	}
	return nil
}

// IsMSF reports whether the given edge indices are exactly the unique
// minimum spanning forest of g.
func IsMSF(g *graph.Graph, forest []int) error {
	if err := IsSpanningForest(g, forest); err != nil {
		return err
	}
	want := Kruskal(g)
	got := append([]int(nil), forest...)
	sort.Ints(got)
	if len(got) != len(want) {
		return fmt.Errorf("spanning: MSF has %d edges, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			e, w := g.Edge(got[i]), g.Edge(want[i])
			return fmt.Errorf("spanning: MSF mismatch at position %d: got {%d,%d} w=%d, want {%d,%d} w=%d",
				i, e.A, e.B, e.Raw, w.A, w.B, w.Raw)
		}
	}
	return nil
}

// ForestWeight sums raw weights over the given edge indices.
func ForestWeight(g *graph.Graph, forest []int) uint64 {
	var total uint64
	for _, ei := range forest {
		total += g.Edge(ei).Raw
	}
	return total
}

// CutEdges returns the indices of edges with exactly one endpoint in the
// node set inT (a boolean per node, index 0 unused) — the paper's
// Cut(T, V\T).
func CutEdges(g *graph.Graph, inT []bool) []int {
	var cut []int
	for i, e := range g.Edges() {
		if inT[e.A] != inT[e.B] {
			cut = append(cut, i)
		}
	}
	return cut
}

// MinCutEdge returns the index of the minimum-composite-weight edge leaving
// the node set, or -1 if the cut is empty.
func MinCutEdge(g *graph.Graph, inT []bool) int {
	best := -1
	var bestW uint64
	for i, e := range g.Edges() {
		if inT[e.A] != inT[e.B] {
			w := g.Composite(e)
			if best < 0 || w < bestW {
				best, bestW = i, w
			}
		}
	}
	return best
}

// TreePathMax returns the index (into forest positions of g) of the
// maximum-composite-weight edge on the tree path between u and v, walking
// only the given forest edges. It returns -1 if u and v are not connected
// by the forest. Used to validate the Insert repair rule.
func TreePathMax(g *graph.Graph, forest []int, u, v uint32) int {
	adj := make(map[uint32][]int)
	inForest := make(map[int]bool, len(forest))
	for _, ei := range forest {
		e := g.Edge(ei)
		adj[e.A] = append(adj[e.A], ei)
		adj[e.B] = append(adj[e.B], ei)
		inForest[ei] = true
	}
	// BFS from u remembering the parent edge.
	parentEdge := make(map[uint32]int)
	visited := map[uint32]bool{u: true}
	queue := []uint32{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if x == v {
			break
		}
		for _, ei := range adj[x] {
			e := g.Edge(ei)
			o := e.A
			if o == x {
				o = e.B
			}
			if !visited[o] {
				visited[o] = true
				parentEdge[o] = ei
				queue = append(queue, o)
			}
		}
	}
	if !visited[v] {
		return -1
	}
	best := -1
	var bestW uint64
	for x := v; x != u; {
		ei := parentEdge[x]
		e := g.Edge(ei)
		if w := g.Composite(e); best < 0 || w > bestW {
			best, bestW = ei, w
		}
		if e.A == x {
			x = e.B
		} else {
			x = e.A
		}
	}
	return best
}
