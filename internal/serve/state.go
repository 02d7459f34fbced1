// Package serve turns the batch simulator into a long-lived
// topology-maintenance daemon: an update-stream ingester feeding the
// admission queue against a live engine, a checkpoint/resume layer that
// makes multi-hour churn runs survive restarts, and a Server-Sent Events
// push layer streaming obsv snapshot deltas to subscribers.
//
// The daemon's determinism story is epoch-based. Engine state (graph +
// marked forest) is only durable at epoch boundaries, where every
// admission wave has drained and all staged marks are applied; each epoch
// rebuilds a fresh engine from that state with a seed mixed from (daemon
// seed, epoch index), and generated churn is a pure function of (state,
// seed, epoch). A daemon resumed from any epoch-boundary checkpoint
// therefore replays the remaining epochs event-for-event identically to
// an uninterrupted run — the digest-equivalence contract the serve tests
// and the CI smoke gate enforce.
package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"

	"kkt/internal/congest"
	"kkt/internal/graph"
)

// EdgeState is one live edge in a serialized engine state. A < B always.
type EdgeState struct {
	A      uint32 `json:"a"`
	B      uint32 `json:"b"`
	Raw    uint64 `json:"raw"`
	Marked bool   `json:"marked,omitempty"`
}

// State is the durable topology state of the daemon: everything needed to
// rebuild an equivalent engine. Sessions, staged marks and in-flight
// waves are deliberately absent — State is only captured at epoch
// boundaries, where none exist.
type State struct {
	N      int         `json:"n"`
	MaxRaw uint64      `json:"max_raw"`
	Edges  []EdgeState `json:"edges"`
}

// CaptureState serializes the network's live topology and marked forest
// in canonical (sorted-edge) order. The walk emits that order as it goes:
// nodes ascend, and each node's Edges window is sorted by neighbour ID (a
// congest invariant that InsertLink and Relayout keep).
func CaptureState(nw *congest.Network) State {
	st := State{N: nw.N(), MaxRaw: nw.MaxRaw()}
	for v := 1; v <= st.N; v++ {
		node := nw.Node(congest.NodeID(v))
		for i := range node.Edges {
			he := &node.Edges[i]
			if uint32(he.Neighbor) > uint32(v) {
				st.Edges = append(st.Edges, EdgeState{
					A: uint32(v), B: uint32(he.Neighbor), Raw: node.Raw(he), Marked: he.Marked,
				})
			}
		}
	}
	return st
}

// StateOf serializes a generated graph with the given forest edges (by
// index into g) marked — the daemon's epoch-zero state.
func StateOf(g *graph.Graph, forest []int) State {
	marked := make(map[int]bool, len(forest))
	for _, ei := range forest {
		marked[ei] = true
	}
	st := State{N: g.N, MaxRaw: g.MaxRaw}
	for i, e := range g.Edges() {
		a, b := e.A, e.B
		if a > b {
			a, b = b, a
		}
		st.Edges = append(st.Edges, EdgeState{A: a, B: b, Raw: e.Raw, Marked: marked[i]})
	}
	sort.Slice(st.Edges, func(i, j int) bool {
		if st.Edges[i].A != st.Edges[j].A {
			return st.Edges[i].A < st.Edges[j].A
		}
		return st.Edges[i].B < st.Edges[j].B
	})
	return st
}

// Graph rebuilds the topology as a graph.Graph (marks are not a graph
// property; see MarkedPairs).
func (st State) Graph() *graph.Graph {
	g := graph.MustNewCap(st.N, st.MaxRaw, len(st.Edges))
	for _, e := range st.Edges {
		g.MustAddEdge(e.A, e.B, e.Raw)
	}
	return g
}

// validate checks that st describes a graph with a marked forest: the
// bit layout fits, edges are sorted and distinct with 1 <= A < B <= N,
// weights lie in 1..MaxRaw, and the marked edges close no cycle.
func (st State) validate() error {
	if _, err := graph.New(st.N, st.MaxRaw); err != nil {
		return err
	}
	// Union-find keyed by endpoint: memory follows the edge list, not N.
	parent := make(map[uint32]uint32)
	find := func(v uint32) uint32 {
		for {
			p, ok := parent[v]
			if !ok {
				return v
			}
			if gp, ok := parent[p]; ok {
				parent[v] = gp // path halving
				p = gp
			}
			v = p
		}
	}
	for i, e := range st.Edges {
		if e.A < 1 || e.A >= e.B || int64(e.B) > int64(st.N) {
			return fmt.Errorf("edge {%d,%d}: want 1 <= a < b <= %d", e.A, e.B, st.N)
		}
		if i > 0 {
			if p := st.Edges[i-1]; p.A > e.A || p.A == e.A && p.B >= e.B {
				return fmt.Errorf("edge {%d,%d} after {%d,%d}: edges must be sorted and distinct", e.A, e.B, p.A, p.B)
			}
		}
		if e.Raw < 1 || e.Raw > st.MaxRaw {
			return fmt.Errorf("edge {%d,%d}: raw weight %d outside 1..%d", e.A, e.B, e.Raw, st.MaxRaw)
		}
		if e.Marked {
			ra, rb := find(e.A), find(e.B)
			if ra == rb {
				return fmt.Errorf("marked edge {%d,%d} closes a cycle", e.A, e.B)
			}
			parent[ra] = rb
		}
	}
	return nil
}

// MarkedPairs returns the marked forest as endpoint pairs, in canonical
// order, for congest.Network.SetForest.
func (st State) MarkedPairs() [][2]congest.NodeID {
	var out [][2]congest.NodeID
	for _, e := range st.Edges {
		if e.Marked {
			out = append(out, [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)})
		}
	}
	return out
}

// MarkedIndices returns the marked forest as edge indices into g, which
// must be the graph st.Graph() built (faultplan.Compile's forest input).
func (st State) MarkedIndices(g *graph.Graph) []int {
	var out []int
	for _, e := range st.Edges {
		if e.Marked {
			out = append(out, g.EdgeIndex(e.A, e.B))
		}
	}
	return out
}

// Digest is the canonical sha256 over the state: node count, weight
// bound, and every (a, b, raw, marked) tuple in sorted order. Two daemons
// whose digests agree hold identical topologies and identical maintained
// forests.
func (st State) Digest() string {
	h := sha256.New()
	var buf [21]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(st.N))
	binary.LittleEndian.PutUint64(buf[8:16], st.MaxRaw)
	h.Write(buf[:16])
	for _, e := range st.Edges {
		binary.LittleEndian.PutUint32(buf[0:4], e.A)
		binary.LittleEndian.PutUint32(buf[4:8], e.B)
		binary.LittleEndian.PutUint64(buf[8:16], e.Raw)
		buf[16] = 0
		if e.Marked {
			buf[16] = 1
		}
		h.Write(buf[:17])
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

// GraphDigest is the mark-free digest of a generated graph — the trace
// header's integrity check, independent of which forest the maintaining
// algorithm marks.
func GraphDigest(g *graph.Graph) string {
	return StateOf(g, nil).Digest()
}
