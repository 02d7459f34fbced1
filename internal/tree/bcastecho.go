package tree

import (
	"fmt"
	"unsafe"

	"kkt/internal/congest"
)

// MaxWidth is the widest echo a Spec may declare, in words: HP-TestOut
// echoes two products per repetition (2·sketch.MaxReps) and the survey
// five counters.
const MaxWidth = 6

// Emit lets OnDown side effects send extra protocol messages from the
// receiving node (e.g. forwarding an add-edge instruction across the new
// edge). It is a plain value — the network view, the node and the session
// — so handing one to OnDown at every node allocates nothing.
type Emit struct {
	nw   *congest.Network
	from congest.NodeID
	sid  congest.SessionID
}

// Send sends one message from the receiving node, in the broadcast's
// session.
func (e Emit) Send(to congest.NodeID, kind congest.KindID, bits int, payload any) {
	e.nw.Send(e.from, to, kind, e.sid, bits, payload)
}

// Spec describes one broadcast-and-echo: what the root broadcasts, what
// each node computes locally, and how echoes aggregate. The functions are
// shared protocol code — identical at every node — and must only read the
// *NodeState they are handed plus the broadcast value.
//
// An echo is Width words. Each node's Local fills a zeroed accumulator
// and Fold merges every child's echo into it as the echo arrives, so a
// node holds nothing but its accumulator while it waits. A one-word echo
// travels in Message.U and completes the session through
// CompleteSessionU: read it with Wake.U. A wider echo travels as a
// *[MaxWidth]uint64 block recycled through the Protocol's per-lane free
// lists; at the root its words are copied into Out, and the session
// completes with the first of them.
type Spec struct {
	// Down is the broadcast payload, forwarded unchanged down the tree.
	Down any
	// DownBits / UpBits declare the message sizes for cost accounting
	// and budget checking.
	DownBits int
	UpBits   int
	// Width is the echo's length in words, 1..MaxWidth; 0 means 1.
	Width int
	// Local writes the node's own contribution into acc (Width zeroed
	// words) upon receiving the broadcast. nil contributes zeros.
	Local func(node *congest.NodeState, down any, acc []uint64)
	// Fold merges child, the echo of the child from, into acc. Echoes
	// fold in arrival order, so the fold must be commutative and
	// associative. A fold that needs the connecting edge looks it up with
	// node.EdgeTo(from). child is only valid during the call. nil XORs
	// word by word.
	Fold func(node *congest.NodeState, down any, acc []uint64, from congest.NodeID, child []uint64)
	// Out receives a wide echo's words at the root. The runner that
	// starts the session owns it; it must hold Width words when Width > 1.
	Out []uint64
	// OnDown, if non-nil, runs at every node when the broadcast arrives
	// (including the root at start) and may mutate local state and send
	// extra messages through emit. Used for marking instructions.
	OnDown func(node *congest.NodeState, down any, emit Emit)
}

// width returns the echo's length in words.
func (s *Spec) width() int {
	if s.Width == 0 {
		return 1
	}
	return s.Width
}

// beState is one node's automaton state in one broadcast-and-echo.
type beState struct {
	parent congest.NodeID // 0 at the root
	// parentPos is the parent's half-edge position in node.Edges, recorded
	// by the child loop so the echo is sent by position (-1 at the root).
	parentPos int32
	expected  int32 // children still to echo
	// acc accumulates a one-word echo; blk a wider one. A node takes its
	// block when the broadcast arrives and sends it up as its echo.
	acc [1]uint64
	blk *[MaxWidth]uint64
}

// words returns the node's accumulator for a w-word echo.
func (st *beState) words(w int) []uint64 {
	if st.blk != nil {
		return st.blk[:w]
	}
	return st.acc[:]
}

// beSlot is one node's entry in the Protocol's dense slot array: the
// state of the broadcast-and-echo stamped in sid (0 = free), held inline
// in 40 bytes.
type beSlot struct {
	sid congest.SessionID
	beState
}

// claimBE returns node's fresh state for session sid with the given
// parent: its slot when free, else an overflow state kept in the node's
// session vector (a node in two live sessions at once). A node that
// already holds state for sid got a second broadcast — the marked
// subgraph is not a tree.
//
// Shard safety: a node's slot is only touched by handlers at that node
// (one shard) or by a driver between rounds.
func (pr *Protocol) claimBE(node *congest.NodeState, sid congest.SessionID, parent congest.NodeID) *beState {
	sl := &pr.slots[node.Slot()]
	if sl.sid == 0 {
		sl.sid = sid
		sl.parent, sl.parentPos = parent, -1
		return &sl.beState
	}
	if sl.sid == sid || node.SessionState(sid) != nil {
		panic(fmt.Sprintf("tree: node %d got a second broadcast in session %d — marked subgraph is not a tree", node.ID, sid))
	}
	st := &beState{parent: parent, parentPos: -1}
	node.SetSessionState(sid, st)
	return st
}

// stateBE returns node's state for session sid, or nil.
func (pr *Protocol) stateBE(node *congest.NodeState, sid congest.SessionID) *beState {
	if sl := &pr.slots[node.Slot()]; sl.sid == sid {
		return &sl.beState
	}
	st, _ := node.SessionState(sid).(*beState)
	return st
}

// releaseBE frees node's state for session sid.
func (pr *Protocol) releaseBE(node *congest.NodeState, sid congest.SessionID) {
	sl := &pr.slots[node.Slot()]
	if sl.sid != sid {
		node.SetSessionState(sid, nil)
		return
	}
	sl.beState = beState{}
	sl.sid = 0
}

// getBlock pops a zeroed echo block from the free list of nw's lane, or
// allocates one.
func (pr *Protocol) getBlock(nw *congest.Network) *[MaxWidth]uint64 {
	if nw == pr.nw && len(pr.blkFree) > 1 {
		pr.balanceBlocks()
	}
	lane := nw.LaneID()
	free := pr.blkFree[lane]
	if n := len(free); n > 0 {
		pr.blkFree[lane] = free[:n-1]
		return free[n-1]
	}
	return new([MaxWidth]uint64)
}

// balanceBlocks evens out the lanes' block lists. A block returns to the
// list of the lane that folds it, not of the one that drew it, so under
// shards the lane of the parents gains what the lane of the children
// keeps allocating. The protocol's own view runs only while no shard
// worker does, so each of its draws checks the lists and, once the
// longest holds more than twice the shortest, moves half the gap across.
func (pr *Protocol) balanceBlocks() {
	hi, lo := 0, 0
	for i, free := range pr.blkFree {
		if len(free) > len(pr.blkFree[hi]) {
			hi = i
		}
		if len(free) < len(pr.blkFree[lo]) {
			lo = i
		}
	}
	h, l := len(pr.blkFree[hi]), len(pr.blkFree[lo])
	if h <= 2*l+64 {
		return
	}
	keep := h - (h-l)/2
	pr.blkFree[lo] = append(pr.blkFree[lo], pr.blkFree[hi][keep:]...)
	clear(pr.blkFree[hi][keep:])
	pr.blkFree[hi] = pr.blkFree[hi][:keep]
}

// putBlock zeroes a folded echo block and recycles it into the lane's
// free list.
func (pr *Protocol) putBlock(lane int, b *[MaxWidth]uint64) {
	*b = [MaxWidth]uint64{}
	pr.blkFree[lane] = append(pr.blkFree[lane], b)
}

// setSpec binds a session to its spec in the slot-indexed table (no map
// ops: the session slot is recycled by the engine, the full ID validates).
func (pr *Protocol) setSpec(sid congest.SessionID, spec *Spec) {
	slot := sid.Slot()
	for slot >= len(pr.specs) {
		pr.specs = append(pr.specs, specSlot{})
	}
	pr.specs[slot] = specSlot{sid: sid, spec: spec}
}

// specFor resolves a session's spec, or nil for an unknown session.
func (pr *Protocol) specFor(sid congest.SessionID) *Spec {
	slot := sid.Slot()
	if slot >= len(pr.specs) || pr.specs[slot].sid != sid {
		return nil
	}
	return pr.specs[slot].spec
}

// clearSpec unbinds a completed session's spec.
func (pr *Protocol) clearSpec(sid congest.SessionID) {
	slot := sid.Slot()
	if slot < len(pr.specs) && pr.specs[slot].sid == sid {
		pr.specs[slot] = specSlot{}
	}
}

// StartBroadcastEcho begins a broadcast-and-echo rooted at root over the
// marked edges. The returned session completes with the echo's first word
// (Wake.U); a wide echo is also copied into spec.Out. The marked subgraph
// containing root must be a tree, otherwise the run panics — cycles are a
// protocol error here (Build-ST handles cycles via elections, never via
// B&E).
func (pr *Protocol) StartBroadcastEcho(root congest.NodeID, spec *Spec) congest.SessionID {
	if w := spec.width(); w < 1 || w > MaxWidth || (w > 1 && len(spec.Out) < w) {
		panic(fmt.Sprintf("tree: Spec.Width %d needs 1..%d words and an Out that holds them (len %d)", spec.Width, MaxWidth, len(spec.Out)))
	}
	if o := pr.nw.Obs(); o != nil {
		o.Count("tree.bcast_echo", 1)
	}
	sid := pr.nw.NewSession(nil)
	pr.setSpec(sid, spec)
	node := pr.nw.Node(root)
	pr.runDownAt(pr.nw, node, sid, spec, pr.claimBE(node, sid, 0))
	return sid
}

// runDownAt performs the on-broadcast work at a node: side effects, local
// compute, forwarding, and the immediate echo when the node is a leaf.
// The child loop sends by half-edge position and records the parent's
// position for the echo. All engine calls go through nw — the network
// view the caller was handed — so a shard worker's sends, completions and
// block draws land in its own lane.
func (pr *Protocol) runDownAt(nw *congest.Network, node *congest.NodeState, sid congest.SessionID, spec *Spec, st *beState) {
	if spec.OnDown != nil {
		spec.OnDown(node, spec.Down, Emit{nw: nw, from: node.ID, sid: sid})
	}
	w := spec.width()
	if w > 1 {
		st.blk = pr.getBlock(nw)
	}
	if spec.Local != nil {
		spec.Local(node, spec.Down, st.words(w))
	}
	for i := range node.Edges {
		he := &node.Edges[i]
		if !he.Marked {
			continue
		}
		if he.Neighbor == st.parent {
			st.parentPos = int32(i)
		} else {
			st.expected++
			nw.SendAt(node.ID, i, he.Neighbor, KindDown, sid, spec.DownBits, spec.Down)
		}
	}
	if st.expected == 0 {
		pr.echoUp(nw, node, sid, spec, st)
	}
}

// echoUp finishes a node: releases its state and either echoes its
// accumulator to the parent — a block hands over to the message — or, at
// the root, completes the session.
func (pr *Protocol) echoUp(nw *congest.Network, node *congest.NodeState, sid congest.SessionID, spec *Spec, st *beState) {
	parent, pos, word, blk := st.parent, int(st.parentPos), st.acc[0], st.blk
	pr.releaseBE(node, sid)
	switch {
	case parent != 0 && blk == nil:
		nw.SendUAt(node.ID, pos, parent, KindUp, sid, spec.UpBits, word)
	case parent != 0:
		nw.SendAt(node.ID, pos, parent, KindUp, sid, spec.UpBits, blk)
	default:
		pr.clearSpec(sid)
		if blk != nil {
			word = blk[0]
			copy(spec.Out, blk[:spec.Width])
			pr.putBlock(nw.LaneID(), blk)
		}
		nw.CompleteSessionU(sid, word, nil)
	}
}

func (pr *Protocol) onDown(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	spec := pr.specFor(msg.Session)
	if spec == nil {
		panic(fmt.Sprintf("tree: down message for unknown session %d", msg.Session))
	}
	pr.runDownAt(nw, node, msg.Session, spec, pr.claimBE(node, msg.Session, msg.From))
}

// onUp folds one child's echo into the node's accumulator and recycles
// the child's block, if any, into this lane.
func (pr *Protocol) onUp(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	spec := pr.specFor(msg.Session)
	if spec == nil {
		panic(fmt.Sprintf("tree: up message for unknown session %d", msg.Session))
	}
	st := pr.stateBE(node, msg.Session)
	if st == nil {
		panic(fmt.Sprintf("tree: node %d got echo without broadcast state in session %d", node.ID, msg.Session))
	}
	w := spec.width()
	var blk *[MaxWidth]uint64
	child := unsafe.Slice(&msg.U, 1) // a one-word echo, read in place
	if w > 1 {
		blk = msg.Payload.(*[MaxWidth]uint64)
		child = blk[:w]
	}
	acc := st.words(w)
	if spec.Fold != nil {
		spec.Fold(node, spec.Down, acc, msg.From, child)
	} else {
		for i := range acc {
			acc[i] ^= child[i]
		}
	}
	if blk != nil {
		pr.putBlock(nw.LaneID(), blk)
	}
	st.expected--
	if st.expected == 0 {
		pr.echoUp(nw, node, msg.Session, spec, st)
	}
}
