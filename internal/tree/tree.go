package tree

import (
	"fmt"

	"kkt/internal/congest"
	"kkt/internal/rng"
)

// Message kinds registered by Attach, interned once at package init.
var (
	KindDown  = congest.Kind("tree.down")  // broadcast phase of broadcast-and-echo
	KindUp    = congest.Kind("tree.up")    // echo phase of broadcast-and-echo
	KindToken = congest.Kind("tree.token") // leader-election token
	KindMarkX = congest.Kind("tree.markx") // cross-edge mark request (add-edge forwarding)
)

// Protocol is the per-network instance holding session specs, the state
// pools that keep the per-message path allocation-free, and the protocol
// RNG stream (used only for node-local random choices).
type Protocol struct {
	nw *congest.Network
	// specs binds live broadcast-and-echo sessions to their Spec, indexed
	// by the engine's recycled session slot and validated by the full
	// session ID — no map on the per-message path. Drivers write entries
	// between rounds; handlers only read (and clear, at the root — a
	// session's root is one node, so one shard) their own slots, which
	// keeps the table shard-safe without locks.
	specs []specSlot
	// slots holds each node's broadcast-and-echo state, indexed by the
	// node's storage slot (NodeState.Slot, not its ID, so that the slots
	// of a fragment's nodes sit together as their states do) and stamped
	// with its session (see claimBE). A node in two live sessions at once
	// keeps the second in its session vector. No slot is taken between
	// Runs, so a re-layout moves none.
	slots []beSlot
	// blkFree recycles wide echoes' blocks, one free list per execution
	// lane so shard workers never contend.
	blkFree [][]*[MaxWidth]uint64
	// electBuf is the reusable per-node election state array, indexed by
	// storage slot like slots; electSid is the session currently borrowing
	// it (0 = free). A second concurrent wave — which never happens in the
	// paper's algorithms — falls back to a fresh allocation.
	electBuf []electState
	electSid congest.SessionID
	r        *rng.RNG
}

// specSlot is one entry of the slot-indexed session->spec table.
type specSlot struct {
	sid  congest.SessionID
	spec *Spec
}

// Attach registers the tree protocol handlers on nw and returns the
// instance. Call exactly once per network.
func Attach(nw *congest.Network) *Protocol {
	pr := &Protocol{
		nw:      nw,
		slots:   make([]beSlot, nw.N()+1),
		blkFree: make([][]*[MaxWidth]uint64, nw.Lanes()),
		r:       nw.Rand(),
	}
	nw.RegisterHandler(KindDown, pr.onDown)
	nw.RegisterHandler(KindUp, pr.onUp)
	nw.RegisterHandler(KindToken, pr.onToken)
	nw.RegisterHandler(KindMarkX, pr.onMarkX)
	return pr
}

// Network returns the attached network.
func (pr *Protocol) Network() *congest.Network { return pr.nw }

// SendMarkX asks the node across the (existing, typically unmarked) link
// {from,to} to mark its half of the edge at the next barrier. Used by
// drivers acting as the in-tree endpoint of a newly selected edge.
func (pr *Protocol) SendMarkX(from, to congest.NodeID) {
	pr.nw.Send(from, to, KindMarkX, 0, 16, nil)
}

func (pr *Protocol) onMarkX(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	if node.EdgeTo(msg.From) == nil {
		panic(fmt.Sprintf("tree: markx for missing edge {%d,%d}", msg.From, node.ID))
	}
	node.StageMark(msg.From)
}

// AddEdgeSpec returns the broadcast-and-echo spec of the paper's "Add
// Edge" instruction: the broadcast carries the selected edge's number;
// the in-tree endpoint(s) stage a mark on it and forward a markx across
// it so the other endpoint (possibly outside the tree) also stages one.
// All marks take effect at the next barrier (ApplyStaged).
func AddEdgeSpec(edgeNum uint64) *Spec {
	return &Spec{
		Down:     edgeNum,
		DownBits: 64,
		UpBits:   1,
		OnDown: func(node *congest.NodeState, down any, emit Emit) {
			en, mask := down.(uint64), node.EdgeNumMask()
			for i := range node.Edges {
				he := &node.Edges[i]
				if he.Composite&mask == en && !he.Marked {
					node.StageMark(he.Neighbor)
					emit.Send(he.Neighbor, KindMarkX, 16, nil)
				}
			}
		},
	}
}
