// Package flood is the Theta(m) baseline for spanning-tree construction:
// an initiator floods a join message; every node adopts the first sender
// as its parent, notifies it, and forwards the flood on all other links
// (see e.g. [32]). Every edge carries at least one message, which is
// exactly the Omega(m) "folk theorem" cost the paper's ST algorithm
// beats.
package flood

import (
	"kkt/internal/congest"
)

// Message kinds, interned once at package init.
var (
	KindJoin   = congest.Kind("flood.join")   // flood wave
	KindParent = congest.Kind("flood.parent") // child -> parent notification
)

// Protocol is the per-network flooding instance.
type Protocol struct {
	nw      *congest.Network
	visited []bool
}

// Attach registers the flooding handlers. Call once per network.
func Attach(nw *congest.Network) *Protocol {
	f := &Protocol{nw: nw, visited: make([]bool, nw.N()+1)}
	nw.RegisterHandler(KindJoin, f.onJoin)
	nw.RegisterHandler(KindParent, f.onParent)
	return f
}

// BuildResult reports a flooding run.
type BuildResult struct {
	Forest   [][2]congest.NodeID
	Messages uint64
	Bits     uint64
	Rounds   int64
}

// Build floods from the smallest node of each connected component and
// marks the resulting broadcast forest. Under the synchronous scheduler
// the result is a BFS forest.
func (f *Protocol) Build() (BuildResult, error) {
	nw := f.nw
	var result BuildResult
	for v := 1; v <= nw.N(); v++ {
		if f.visited[v] {
			continue
		}
		// initiator of this component
		start := congest.NodeID(v)
		f.visited[v] = true
		node := nw.Node(start)
		for i := range node.Edges {
			nw.Send(start, node.Edges[i].Neighbor, KindJoin, 0, 8, nil)
		}
		if err := nw.Run(); err != nil {
			return result, err
		}
		nw.ApplyStaged()
	}
	result.Forest = nw.MarkedEdges()
	result.Messages, result.Bits = nw.Totals()
	result.Rounds = nw.Now()
	return result, nil
}

func (f *Protocol) onJoin(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	if f.visited[node.ID] {
		return // duplicate wave; ignore (the message is still counted)
	}
	f.visited[node.ID] = true
	// adopt the first sender as parent: both sides stage the mark.
	node.StageMark(msg.From)
	nw.Send(node.ID, msg.From, KindParent, 0, 8, nil)
	for i := range node.Edges {
		if nb := node.Edges[i].Neighbor; nb != msg.From {
			nw.Send(node.ID, nb, KindJoin, 0, 8, nil)
		}
	}
}

func (f *Protocol) onParent(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	node.StageMark(msg.From)
}
