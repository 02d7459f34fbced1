package faultplan

import (
	"testing"

	"kkt/internal/graph"
	"kkt/internal/rng"
)

// refOrient is the sequential reference for orient: two independent capped
// walks, (b, a) iff min(|side b|, cap) < min(|side a|, cap).
func refOrient(m *model, a, b, skipA, skipB uint32) (uint32, uint32) {
	if m.sideSize(b, skipB, orientSideCap) < m.sideSize(a, skipA, orientSideCap) {
		return b, a
	}
	return a, b
}

// randomForestGraph returns a graph whose forest has components of
// 6000, 5000, 500 and 40 nodes (so sides on both sides of orientSideCap
// occur, and two components both past it) plus 60 isolated nodes, with
// random non-forest edges on top. Each tree attaches node v to one of its
// few predecessors, so the trees are deep and many edges split them into
// two large sides.
func randomForestGraph(seed uint64) (*graph.Graph, []int) {
	r := rng.New(seed)
	const n = 11600
	g := graph.MustNew(n, 1024)
	var forest []int
	start := uint32(1)
	for _, size := range []uint32{6000, 5000, 500, 40} {
		for v := start + 1; v < start+size; v++ {
			back := uint32(r.Intn(min(int(v-start), 12))) + 1
			g.MustAddEdge(v-back, v, r.Range(1, 1024))
			forest = append(forest, g.M()-1)
		}
		start += size
	}
	for i := 0; i < 3000; i++ {
		a, b := uint32(r.Intn(n)+1), uint32(r.Intn(n)+1)
		if a != b && !g.HasEdge(a, b) {
			g.MustAddEdge(a, b, r.Range(1, 1024))
		}
	}
	return g, forest
}

// TestOrientMatchesReference checks the alternating walk against two
// capped walks on forest edges, on non-forest edges (whose endpoints often
// share a component) and on random pairs, including pairs in one component
// — the insert case.
func TestOrientMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		g, forest := randomForestGraph(seed)
		m := newModel(g, forest, seed)
		r := rng.New(seed * 31)
		check := func(what string, a, b, skipA, skipB uint32) {
			t.Helper()
			ga, gb := m.orient(a, b, skipA, skipB)
			wa, wb := refOrient(m, a, b, skipA, skipB)
			if ga != wa || gb != wb {
				t.Fatalf("seed %d %s {%d,%d}: orient = (%d,%d), reference (%d,%d)", seed, what, a, b, ga, gb, wa, wb)
			}
		}
		// Ties: two components both past the cap, two isolated nodes.
		check("capped pair", 1, 6001, 0, 0)
		check("capped pair", 6001, 1, 0, 0)
		check("isolated pair", 11599, 11600, 0, 0)
		check("isolated pair", 11600, 11599, 0, 0)
		tree := m.treeEdgeList()
		for i := 0; i < 400; i++ {
			e := tree[r.Intn(len(tree))]
			a, b := e[0], e[1]
			if r.Intn(2) == 0 {
				a, b = b, a
			}
			check("forest edge", a, b, b, a)
		}
		sameComp := 0
		for i := 0; i < 400; i++ {
			a, b, _ := m.pickEdge()
			check("edge", a, b, b, a)
			a, b = uint32(r.Intn(m.n)+1), uint32(r.Intn(m.n)+1)
			if i%2 == 0 {
				// Same-component pair: b is a few forest hops from a.
				b = a
				for hop := 0; hop < 1+r.Intn(20); hop++ {
					if nb := m.forestNeighbour(b, r); nb != 0 {
						b = nb
					}
				}
				if a == b {
					continue
				}
				sameComp++
			}
			check("pair", a, b, 0, 0)
		}
		if sameComp < 100 {
			t.Fatalf("seed %d: only %d same-component pairs probed", seed, sameComp)
		}
		for v := range m.seen {
			if m.seen[v] != 0 {
				t.Fatalf("seed %d: seen[%d] = %d left set after the probes", seed, v, m.seen[v])
			}
		}
	}
}

// forestNeighbour returns a random forest neighbour of v, or 0.
func (m *model) forestNeighbour(v uint32, r *rng.RNG) uint32 {
	var nb []uint32
	for _, h := range m.adj[v] {
		if h.tree {
			nb = append(nb, h.to)
		}
	}
	if len(nb) == 0 {
		return 0
	}
	return nb[r.Intn(len(nb))]
}
