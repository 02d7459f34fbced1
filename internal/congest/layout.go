package congest

import "fmt"

// relayScratch is Relayout's working memory, kept across calls so that a
// warm re-layout allocates nothing: start holds each node's new window
// offset (indexed by ID), dest each half-edge's new position (indexed by
// its current position in the backing array).
type relayScratch struct {
	start []uint32
	dest  []uint32
}

// relayUnset marks a node that order has not placed yet.
const relayUnset = ^uint32(0)

// Relayout moves the node states into the storage order given by order,
// a permutation of the IDs 1..n: order[i] moves to slot i+1. Each node's
// half-edge window moves with it, so the backing array holds the windows
// in the new slot order. Nothing observable changes: IDs, Node, each
// window's contents and order (Edges positions, hence SendAt positions),
// marks, staged marks, session vectors and the async FIFO cells all stay
// the same; only Slot and the addresses of states and half-edges move.
// Any *NodeState or *HalfEdge held across the call is stale afterwards.
//
// Both moves are in place: cycle walks over the states and over the
// half-edges, so the only extra memory is the scratch, kept for the next
// call. A window that no longer lies in the backing array (an InsertLink
// into a full window reallocated it) leaves a hole there, and then only
// the states move. Relayout runs between Runs; order is not retained.
func (nw *Network) Relayout(order []NodeID) {
	if nw.running {
		panic("congest: Relayout while the network runs")
	}
	n := nw.N()
	if len(order) != n {
		panic(fmt.Sprintf("congest: Relayout of %d IDs on %d nodes", len(order), n))
	}
	rs := &nw.relay
	if len(rs.start) != n+1 {
		rs.start = make([]uint32, n+1)
	}
	start := rs.start
	for i := range start {
		start[i] = relayUnset
	}
	moved, off := false, 0
	for i, id := range order {
		if id == 0 || int(id) > n || start[id] != relayUnset {
			panic(fmt.Sprintf("congest: Relayout order is not a permutation of 1..%d (at %d: %d)", n, i, id))
		}
		ns := nw.nodes[id]
		start[id] = uint32(off)
		off += cap(ns.Edges)
		moved = moved || ns.Slot() != i+1
	}
	if !moved {
		return
	}
	if nw.windowsTile() {
		nw.moveWindows()
	}
	for i, id := range order {
		nw.nodes[id].setSlot(i + 1)
	}
	// Swap each state into its slot: every swap places one for good.
	states := nw.states
	for s := 1; s <= n; s++ {
		for t := states[s].Slot(); t != s; t = states[s].Slot() {
			states[s], states[t] = states[t], states[s]
		}
	}
	for s := 1; s <= n; s++ {
		nw.nodes[states[s].ID] = &states[s]
	}
}

// windowsTile reports whether the half-edge windows, taken in slot order
// with their capacities, tile the backing array exactly.
func (nw *Network) windowsTile() bool {
	off := 0
	for s := 1; s <= nw.N(); s++ {
		e := nw.states[s].Edges
		if cap(e) == 0 {
			continue
		}
		if off+cap(e) > len(nw.back) || &e[:1][0] != &nw.back[off] {
			return false
		}
		off += cap(e)
	}
	return off == len(nw.back)
}

// moveWindows moves every window (capacity included) to the offset in
// relay.start, in place: a pass in slot order writes each half-edge's new
// position and re-points each node's Edges, then a cycle walk swaps each
// half-edge into its position.
func (nw *Network) moveWindows() {
	rs, back := &nw.relay, nw.back
	if len(rs.dest) != len(back) {
		rs.dest = make([]uint32, len(back))
	}
	dest := rs.dest
	off := 0
	for s := 1; s <= nw.N(); s++ {
		ns := &nw.states[s]
		c := cap(ns.Edges)
		if c == 0 {
			continue
		}
		to := rs.start[ns.ID]
		for k := range c {
			dest[off+k] = to + uint32(k)
		}
		ns.Edges = back[to : int(to)+len(ns.Edges) : int(to)+c]
		off += c
	}
	for p := range dest {
		for q := dest[p]; q != uint32(p); q = dest[p] {
			back[p], back[q] = back[q], back[p]
			dest[p], dest[q] = dest[q], q
		}
	}
}
