// Package graph provides the weighted undirected graphs the simulator runs
// on: compact node IDs, the paper's edge numbering (endpoint IDs
// concatenated, smallest first), composite unique weights (raw weight
// concatenated in front of the edge number, §2 "Definitions"), and the
// workload generators used by tests and benchmarks.
package graph

import (
	"fmt"
	"sort"

	"kkt/internal/bitwidth"
)

// Edge is an undirected edge with a raw weight. A < B always holds.
type Edge struct {
	A, B uint32
	Raw  uint64
}

// Graph is a simple undirected weighted graph on nodes 1..N. The zero
// value is not usable; construct with New.
type Graph struct {
	// N is the number of nodes; IDs are 1..N.
	N int
	// MaxRaw is the upper bound u on raw edge weights.
	MaxRaw uint64
	// Layout is the bit-field layout for IDs/edge numbers/composites.
	Layout bitwidth.Layout

	edges  []Edge
	byNum  map[uint64]int // edge number -> index into edges
	adj    [][]int        // node -> indices into edges; nil until built
	adjval bool
}

// New creates an empty graph on n nodes with raw weights bounded by maxRaw.
func New(n int, maxRaw uint64) (*Graph, error) {
	return newCap(n, maxRaw, 0)
}

// MustNew is New but panics on error.
func MustNew(n int, maxRaw uint64) *Graph {
	return MustNewCap(n, maxRaw, 0)
}

// MustNewCap is MustNew with room for m edges: the edge slice and the
// edge-number index are sized up front, so adding up to m edges never
// regrows them.
func MustNewCap(n int, maxRaw uint64, m int) *Graph {
	g, err := newCap(n, maxRaw, m)
	if err != nil {
		panic(err)
	}
	return g
}

func newCap(n int, maxRaw uint64, m int) (*Graph, error) {
	layout, err := bitwidth.New(n, maxRaw)
	if err != nil {
		return nil, err
	}
	return &Graph{
		N:      n,
		MaxRaw: maxRaw,
		Layout: layout,
		edges:  make([]Edge, 0, m),
		byNum:  make(map[uint64]int, m),
	}, nil
}

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge slice. Callers must not mutate it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// AddEdge inserts the undirected edge {a,b} with the given raw weight.
// Self-loops, duplicate edges, out-of-range endpoints and out-of-range
// weights are rejected.
func (g *Graph) AddEdge(a, b uint32, raw uint64) error {
	a, b, err := g.check(a, b, raw)
	if err != nil {
		return err
	}
	if _, dup := g.byNum[g.Layout.EdgeNum(a, b)]; dup {
		return fmt.Errorf("graph: duplicate edge {%d,%d}", a, b)
	}
	g.add(a, b, raw)
	return nil
}

// MustAddEdge is AddEdge but panics on error; for generators and
// rebuilds whose edges are distinct by construction. It hashes the edge
// number once, where AddEdge probes before inserting: a duplicate shows
// as an index that did not grow, and leaves the graph unusable, which the
// panic reports.
func (g *Graph) MustAddEdge(a, b uint32, raw uint64) {
	a, b, err := g.check(a, b, raw)
	if err != nil {
		panic(err)
	}
	if !g.add(a, b, raw) {
		panic(fmt.Errorf("graph: duplicate edge {%d,%d}", a, b))
	}
}

// check validates an edge and returns its endpoints smallest first.
func (g *Graph) check(a, b uint32, raw uint64) (uint32, uint32, error) {
	if a == b {
		return 0, 0, fmt.Errorf("graph: self-loop at %d", a)
	}
	if a < 1 || int(a) > g.N || b < 1 || int(b) > g.N {
		return 0, 0, fmt.Errorf("graph: endpoint out of range: {%d,%d} with n=%d", a, b, g.N)
	}
	if raw < 1 || raw > g.MaxRaw {
		return 0, 0, fmt.Errorf("graph: raw weight %d outside [1,%d]", raw, g.MaxRaw)
	}
	if a > b {
		a, b = b, a
	}
	return a, b, nil
}

// add indexes and appends the checked edge {a,b}, a < b, and reports
// whether it was new. A duplicate overwrites its index entry.
func (g *Graph) add(a, b uint32, raw uint64) bool {
	g.byNum[g.Layout.EdgeNum(a, b)] = len(g.edges)
	if len(g.byNum) == len(g.edges) {
		return false
	}
	g.edges = append(g.edges, Edge{A: a, B: b, Raw: raw})
	g.adjval = false
	return true
}

// HasEdge reports whether the undirected edge {a,b} exists.
func (g *Graph) HasEdge(a, b uint32) bool {
	if a == b || a < 1 || b < 1 || int(a) > g.N || int(b) > g.N {
		return false
	}
	_, ok := g.byNum[g.Layout.EdgeNum(a, b)]
	return ok
}

// EdgeIndex returns the index of edge {a,b}, or -1 if absent.
func (g *Graph) EdgeIndex(a, b uint32) int {
	if a == b {
		return -1
	}
	i, ok := g.byNum[g.Layout.EdgeNum(a, b)]
	if !ok {
		return -1
	}
	return i
}

// EdgeNum returns the paper's edge number for edge e.
func (g *Graph) EdgeNum(e Edge) uint64 { return g.Layout.EdgeNum(e.A, e.B) }

// Composite returns the unique composite weight of edge e.
func (g *Graph) Composite(e Edge) uint64 {
	return g.Layout.Composite(e.Raw, g.EdgeNum(e))
}

// Adjacency returns, for each node ID (index 0 unused), the indices of its
// incident edges. The result is cached and invalidated by AddEdge.
func (g *Graph) Adjacency() [][]int {
	if g.adjval {
		return g.adj
	}
	adj := make([][]int, g.N+1)
	for i, e := range g.edges {
		adj[e.A] = append(adj[e.A], i)
		adj[e.B] = append(adj[e.B], i)
	}
	g.adj = adj
	g.adjval = true
	return adj
}

// Degree returns the degree of node v.
func (g *Graph) Degree(v uint32) int { return len(g.Adjacency()[v]) }

// Neighbors returns the neighbour IDs of node v in ascending order.
func (g *Graph) Neighbors(v uint32) []uint32 {
	idx := g.Adjacency()[v]
	out := make([]uint32, 0, len(idx))
	for _, i := range idx {
		e := g.edges[i]
		if e.A == v {
			out = append(out, e.B)
		} else {
			out = append(out, e.A)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	cp := &Graph{
		N:      g.N,
		MaxRaw: g.MaxRaw,
		Layout: g.Layout,
		edges:  append([]Edge(nil), g.edges...),
		byNum:  make(map[uint64]int, len(g.byNum)),
	}
	for k, v := range g.byNum {
		cp.byNum[k] = v
	}
	return cp
}

// Validate checks internal invariants (normalised endpoints, consistent
// index, in-range weights); tests call it after generation.
func (g *Graph) Validate() error {
	if len(g.byNum) != len(g.edges) {
		return fmt.Errorf("graph: index size %d != edge count %d", len(g.byNum), len(g.edges))
	}
	for i, e := range g.edges {
		if e.A >= e.B {
			return fmt.Errorf("graph: edge %d not normalised: {%d,%d}", i, e.A, e.B)
		}
		if e.A < 1 || int(e.B) > g.N {
			return fmt.Errorf("graph: edge %d endpoint out of range", i)
		}
		if e.Raw < 1 || e.Raw > g.MaxRaw {
			return fmt.Errorf("graph: edge %d weight %d outside [1,%d]", i, e.Raw, g.MaxRaw)
		}
		if j := g.byNum[g.EdgeNum(e)]; j != i {
			return fmt.Errorf("graph: edge %d not indexed at itself (got %d)", i, j)
		}
	}
	return nil
}
