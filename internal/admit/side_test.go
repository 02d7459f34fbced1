package admit

import (
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/rng"
)

// refCompSize is the sequential reference for Claim.Root: the size of
// start's marked-forest component.
func refCompSize(nw *congest.Network, start congest.NodeID) int {
	seen := make([]bool, nw.N()+1)
	seen[start] = true
	q := []congest.NodeID{start}
	for i := 0; i < len(q); i++ {
		for _, nb := range nw.Node(q[i]).MarkedNeighbors() {
			if !seen[nb] {
				seen[nb] = true
				q = append(q, nb)
			}
		}
	}
	return len(q)
}

// forestNet returns a network on 11600 nodes whose marked forest has
// components of 6000, 5000, 500 and 40 nodes (two of them large enough
// that an early stop would tie them) plus 60 isolated nodes, with unmarked
// random edges on top. The trees attach node v to one of its few
// predecessors, so they are deep.
func forestNet(seed uint64) (*congest.Network, [][2]congest.NodeID) {
	r := rng.New(seed)
	const n = 11600
	g := graph.MustNew(n, 1024)
	var forest [][2]congest.NodeID
	start := uint32(1)
	for _, size := range []uint32{6000, 5000, 500, 40} {
		for v := start + 1; v < start+size; v++ {
			u := v - uint32(r.Intn(min(int(v-start), 12))) - 1
			g.MustAddEdge(u, v, r.Range(1, 1024))
			forest = append(forest, [2]congest.NodeID{congest.NodeID(u), congest.NodeID(v)})
		}
		start += size
	}
	for i := 0; i < 3000; i++ {
		a, b := uint32(r.Intn(n)+1), uint32(r.Intn(n)+1)
		if a != b && !g.HasEdge(a, b) {
			g.MustAddEdge(a, b, r.Range(1, 1024))
		}
	}
	nw := congest.NewNetwork(g)
	nw.SetForest(forest)
	return nw, forest
}

// TestSmallerMatchesReference checks Claim.Root against two full
// component walks, with the scan's labels brought up to date first:
// delete-style across a cut forest edge (the alternating walk), and
// insert-style from the labels for pairs in one tree (where the order is
// kept) and across trees, after a patch of the labels for cuts that stay.
func TestSmallerMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		nw, forest := forestNet(seed)
		r := rng.New(seed * 17)
		q := NewQueue(Config{})
		claim := q.startScan(nw)
		check := func(what string, deleteStyle bool, a, b congest.NodeID) {
			t.Helper()
			ga, gb := claim.Root(deleteStyle, a, b)
			wa, wb := a, b
			if refCompSize(nw, b) < refCompSize(nw, a) {
				wa, wb = b, a
			}
			if ga != wa || gb != wb {
				t.Fatalf("seed %d %s {%d,%d} deleteStyle=%v: Root = (%d,%d), reference (%d,%d)", seed, what, a, b, deleteStyle, ga, gb, wa, wb)
			}
		}
		for _, deleteStyle := range []bool{false, true} {
			// Two large components: the 5000-node one (node 6001's)
			// comes first either way.
			check("large pair", deleteStyle, 1, 6001)
			check("large pair", deleteStyle, 6001, 1)
			// A tie: two isolated nodes keep their order.
			check("isolated pair", deleteStyle, 11599, 11600)
			check("isolated pair", deleteStyle, 11600, 11599)
		}
		for i := 0; i < 150; i++ {
			e := forest[r.Intn(len(forest))]
			nw.SetMark(e[0], e[1], false)
			check("cut", true, e[0], e[1])
			check("cut", true, e[1], e[0])
			nw.SetMark(e[0], e[1], true)
		}

		// Cuts that stay, patched into the labels by the next scan.
		for i := 0; i < 20; i++ {
			e := forest[r.Intn(len(forest))]
			nw.SetMark(e[0], e[1], false)
			claim = q.startScan(nw)
		}
		if full, inc := q.labels.full, q.labels.incremental; full != 1 || inc == 0 {
			t.Fatalf("seed %d: %d full and %d incremental label updates, want 1 full and some patches", seed, full, inc)
		}
		same := 0
		for i := 0; i < 300; i++ {
			a := congest.NodeID(r.Intn(nw.N()) + 1)
			b := congest.NodeID(r.Intn(nw.N()) + 1)
			if i%2 == 0 {
				b = a
				for hop := 0; hop < 1+r.Intn(20); hop++ {
					if nb := nw.Node(b).MarkedNeighbors(); len(nb) > 0 {
						b = nb[r.Intn(len(nb))]
					}
				}
				if a == b {
					continue
				}
				same++
			}
			check("pair", false, a, b)
		}
		if same < 100 {
			t.Fatalf("seed %d: only %d same-component pairs rooted", seed, same)
		}
	}
}

// TestLabelsPatchAndFallback walks the labels through each kind of update:
// patches for a removal and for additions that join components, and a
// full relabel for two removals under one label, for a SetForest behind
// the log, and for a new network.
func TestLabelsPatchAndFallback(t *testing.T) {
	nw, forest := forestNet(1)
	var l labels
	step := func(what string, wantFull, wantInc int) {
		t.Helper()
		l.update(nw)
		if err := l.check(nw); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if l.full != wantFull || l.incremental != wantInc {
			t.Fatalf("%s: %d full and %d incremental updates, want %d and %d", what, l.full, l.incremental, wantFull, wantInc)
		}
	}
	step("first update", 1, 0)
	step("no change", 1, 0)

	// One removal in the big tree, plus an unmarked edge joining the
	// 500-node tree to the 40-node one.
	nw.SetMark(forest[3000][0], forest[3000][1], false)
	join := [2]congest.NodeID{11100, 11550}
	if err := nw.InsertLink(join[0], join[1], 5); err != nil {
		t.Fatal(err)
	}
	nw.SetMark(join[0], join[1], true)
	step("removal and join", 1, 1)

	// Unmarked, re-marked, deleted and re-inserted: each nets out.
	nw.SetMark(forest[10][0], forest[10][1], false)
	nw.SetMark(forest[10][0], forest[10][1], true)
	nw.DeleteLink(join[0], join[1])
	if err := nw.InsertLink(join[0], join[1], 5); err != nil {
		t.Fatal(err)
	}
	nw.SetMark(join[0], join[1], true)
	step("changes that net out", 1, 2)

	// A swap inside one component (the insert case): tree edge {u,v} goes,
	// a new edge from v to node 1 reconnects the halves. v's subtree holds
	// only nodes above v, so node 1 is on u's side, and the removal walks
	// must not cross the new edge.
	u, v := forest[3500][0], forest[3500][1]
	if err := nw.InsertLink(1, v, 7); err != nil {
		t.Fatal(err)
	}
	nw.SetMark(1, v, true)
	nw.SetMark(u, v, false)
	step("swap", 1, 3)

	nw.SetMark(forest[6000][0], forest[6000][1], false)
	nw.SetMark(forest[6100][0], forest[6100][1], true) // still marked: no flip
	step("removal in the second tree", 1, 4)

	nw.SetMark(forest[100][0], forest[100][1], false)
	nw.SetMark(forest[200][0], forest[200][1], false)
	step("two removals under one label", 2, 4)

	nw.SetForest(forest)
	step("SetForest", 3, 4)

	nw, forest = forestNet(2)
	step("new network", 4, 4)
}
