package congest

import (
	"reflect"
	"testing"

	"kkt/internal/graph"
	"kkt/internal/rng"
)

// randomSparseGraph draws a graph on n nodes with m random distinct edges
// and no connectivity scaffold, so some nodes stay isolated; raw weights
// tie often.
func randomSparseGraph(r *rng.RNG, n, m int) *graph.Graph {
	g := graph.MustNew(n, 4)
	for g.M() < m {
		a, b := uint32(r.Intn(n)+1), uint32(r.Intn(n)+1)
		if a != b && !g.HasEdge(a, b) {
			g.MustAddEdge(a, b, r.Range(1, 4))
		}
	}
	return g
}

// TestNewNetworkWindows checks bulk construction against the graph: each
// node's Edges holds exactly its incident edges, sorted by neighbour, with
// the composite weight of the edge, lastSched zero and no mark, and is
// cap-limited to its own window.
func TestNewNetworkWindows(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(40)
		m := r.Intn(n*(n-1)/2 + 1)
		if trial%3 == 0 {
			m = r.Intn(n/2 + 1) // mostly isolated nodes
		}
		g := randomSparseGraph(r, n, m)
		nw := NewNetwork(g)
		halves := 0
		for v := 1; v <= n; v++ {
			ns := nw.Node(NodeID(v))
			if len(ns.Edges) != g.Degree(uint32(v)) || cap(ns.Edges) != len(ns.Edges) {
				t.Fatalf("trial %d node %d: len %d cap %d, degree %d", trial, v, len(ns.Edges), cap(ns.Edges), g.Degree(uint32(v)))
			}
			for i, he := range ns.Edges {
				if i > 0 && ns.Edges[i-1].Neighbor >= he.Neighbor {
					t.Fatalf("trial %d node %d: Edges not sorted by neighbour: %v", trial, v, ns.Edges)
				}
				ei := g.EdgeIndex(uint32(v), uint32(he.Neighbor))
				if ei < 0 {
					t.Fatalf("trial %d node %d: no graph edge to %d", trial, v, he.Neighbor)
				}
				e := g.Edge(ei)
				if want := g.Layout.Composite(e.Raw, g.Layout.EdgeNum(e.A, e.B)); he.Composite != want {
					t.Fatalf("trial %d edge {%d,%d}: composite %#x, want %#x", trial, v, he.Neighbor, he.Composite, want)
				}
				if he.lastSched != 0 || he.Marked {
					t.Fatalf("trial %d edge {%d,%d}: lastSched %d marked %v", trial, v, he.Neighbor, he.lastSched, he.Marked)
				}
			}
			halves += len(ns.Edges)
		}
		if halves != 2*g.M() {
			t.Fatalf("trial %d: %d half-edges for %d edges", trial, halves, g.M())
		}
	}
}

// TestMutationsKeepOtherWindows mutates a bulk-built network and checks
// that every node the mutation does not touch keeps its Edges exactly.
// Windows share one backing array, so an insert into a full window must
// reallocate, not spill into the next node's half-edges.
func TestMutationsKeepOtherWindows(t *testing.T) {
	r := rng.New(8)
	g := graph.GNM(r, 30, 120, 16, graph.UniformWeights(r, 16))
	nw := NewNetwork(g)
	snapshot := func() [][]HalfEdge {
		out := make([][]HalfEdge, nw.N()+1)
		for v := 1; v <= nw.N(); v++ {
			out[v] = append([]HalfEdge(nil), nw.Node(NodeID(v)).Edges...)
		}
		return out
	}
	check := func(op string, before [][]HalfEdge, a, b NodeID) {
		t.Helper()
		for v := 1; v <= nw.N(); v++ {
			if NodeID(v) == a || NodeID(v) == b {
				continue
			}
			if got := nw.Node(NodeID(v)).Edges; !reflect.DeepEqual(got, before[v]) {
				t.Fatalf("%s {%d,%d} changed node %d: %v, was %v", op, a, b, v, got, before[v])
			}
		}
	}
	// Insert at node 1, whose window is full, toward a node after it.
	var a, b NodeID = 1, 0
	for v := NodeID(2); v <= NodeID(nw.N()); v++ {
		if nw.Node(1).EdgeTo(v) == nil {
			b = v
			break
		}
	}
	if b == 0 {
		t.Fatal("node 1 has no non-neighbour")
	}
	if l, c := len(nw.Node(a).Edges), cap(nw.Node(a).Edges); l != c {
		t.Fatalf("node 1's window is not full: len %d cap %d", l, c)
	}
	before := snapshot()
	if err := nw.InsertLink(a, b, 5); err != nil {
		t.Fatal(err)
	}
	check("InsertLink", before, a, b)
	if nw.Node(a).EdgeTo(b) == nil || nw.Node(b).EdgeTo(a) == nil {
		t.Fatal("inserted link missing")
	}

	for i := 0; i < 40; i++ {
		e := g.Edge(r.Intn(g.M()))
		a, b := NodeID(e.A), NodeID(e.B)
		before := snapshot()
		switch i % 3 {
		case 0:
			if existed, _ := nw.DeleteLink(a, b); existed {
				check("DeleteLink", before, a, b)
			}
		case 1:
			if nw.Node(a).EdgeTo(b) != nil {
				if err := nw.SetRawWeight(a, b, r.Range(1, 16)); err != nil {
					t.Fatal(err)
				}
				check("SetRawWeight", before, a, b)
			}
		default:
			if nw.Node(a).EdgeTo(b) == nil {
				if err := nw.InsertLink(a, b, r.Range(1, 16)); err != nil {
					t.Fatal(err)
				}
				check("InsertLink", before, a, b)
			}
		}
	}
}
