package tree

import (
	"fmt"

	"kkt/internal/congest"
)

// ChildEcho is one child's aggregated echo, tagged with the child's ID.
// A Combine that needs the connecting edge (e.g. tree-path maxima) looks
// it up with node.EdgeTo(From); the echo itself carries no edge copy, so
// the many Combines that ignore the edge never pay for the search.
type ChildEcho struct {
	From  congest.NodeID
	Value any
}

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
// A spec uses exactly one of two echo lanes:
//
//   - the boxed lane (Local/Combine): echo values are `any`; children's
//     echoes are collected into a ChildEcho slice and folded at once.
//     General, but every echo boxes its value.
//
//   - the unboxed lane (LocalU/CombineU): echo values are single uint64
//     words (parities, XORs, small counters — the dominant case in the
//     paper's sketches — and path maxima). Words travel in Message.U, fold
//     into a per-node accumulator as they arrive, and complete the session
//     via CompleteSessionU — no interface allocation anywhere on the path.
//     CombineU gets the echoing child's ID, as ChildEcho.From does, so a
//     fold that needs the connecting edge looks it up with node.EdgeTo.
type Spec struct {
	// Down is the broadcast payload, forwarded unchanged down the tree.
	Down any
	// DownBits / UpBits declare the message sizes for cost accounting
	// and budget checking.
	DownBits int
	UpBits   int
	// Local computes the node's own contribution upon receiving the
	// broadcast (boxed lane). May be nil (treated as contributing nil).
	Local func(node *congest.NodeState, down any) any
	// Combine folds the node's local value with its children's echoes
	// into the value echoed to the parent (and, at the root, into the
	// session result). Required on the boxed lane.
	Combine func(node *congest.NodeState, down any, local any, children []ChildEcho) any
	// LocalU, when non-nil, selects the unboxed lane and computes the
	// node's own word. Local and Combine must be nil then.
	LocalU func(node *congest.NodeState, down any) uint64
	// CombineU folds the echo word child of the child from into the
	// accumulator (unboxed lane). The fold must be commutative and
	// associative, since echoes fold in arrival order. nil means XOR.
	CombineU func(node *congest.NodeState, down any, acc uint64, from congest.NodeID, child uint64) uint64
	// OnDown, if non-nil, runs at every node when the broadcast arrives
	// (including the root at start) and may mutate local state and send
	// extra messages through emit. Used for marking instructions.
	OnDown func(node *congest.NodeState, down any, emit Emit)
}

// unboxed reports which echo lane the spec uses.
func (s *Spec) unboxed() bool { return s.LocalU != nil }

// beState is one node's automaton state in one broadcast-and-echo.
type beState struct {
	parent congest.NodeID // 0 at the root
	// parentPos is the parent's half-edge position in node.Edges, recorded
	// by the child loop so the echo is sent by position (-1 at the root).
	parentPos int32
	expected  int32  // children still to echo
	acc       uint64 // unboxed lane accumulator
	// box holds the boxed lane's values at a node that waits for
	// children; nil on the unboxed lane and at leaves, which echo at once.
	box *beBox
}

// beBox is the boxed lane's buffer at a node waiting for children: the
// node's Local value and its children's echoes. It is pooled rather than
// held in the slot because only those nodes need it: inline, it would
// nearly double every node's slot, and a serve daemon, which builds a
// fresh network (so a fresh slot array) every epoch, pays that in peak
// RSS. Boxes recycle through the Protocol's per-lane free lists, and
// children keeps its backing array, so a warm protocol allocates none.
type beBox struct {
	local    any
	children []ChildEcho
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
	sl := &pr.slots[node.ID]
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
	if sl := &pr.slots[node.ID]; sl.sid == sid {
		return &sl.beState
	}
	st, _ := node.SessionState(sid).(*beState)
	return st
}

// releaseBE frees node's state for session sid.
func (pr *Protocol) releaseBE(node *congest.NodeState, sid congest.SessionID) {
	sl := &pr.slots[node.ID]
	if sl.sid != sid {
		node.SetSessionState(sid, nil)
		return
	}
	sl.beState = beState{}
	sl.sid = 0
}

// getBox pops a recycled box from the lane's free list, or allocates one.
func (pr *Protocol) getBox(lane int) *beBox {
	free := pr.boxFree[lane]
	if n := len(free); n > 0 {
		b := free[n-1]
		free[n-1] = nil
		pr.boxFree[lane] = free[:n-1]
		return b
	}
	return &beBox{}
}

// putBox recycles a box, dropping value references for GC but keeping
// the children capacity.
func (pr *Protocol) putBox(lane int, b *beBox) {
	clear(b.children)
	*b = beBox{children: b.children[:0]}
	pr.boxFree[lane] = append(pr.boxFree[lane], b)
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
// marked edges. The returned session completes with Combine's value at the
// root — CombineU's word, read with Wake.U, on the unboxed lane. The marked subgraph containing root must be a tree,
// otherwise the run panics — cycles are a protocol error here (Build-ST
// handles cycles via elections, never via B&E).
func (pr *Protocol) StartBroadcastEcho(root congest.NodeID, spec *Spec) congest.SessionID {
	if spec.unboxed() {
		if spec.Local != nil || spec.Combine != nil {
			panic("tree: Spec mixes the unboxed (LocalU) and boxed (Local/Combine) lanes")
		}
	} else if spec.Combine == nil {
		panic("tree: Spec.Combine is required")
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
// view the caller was handed — so a shard worker's sends and completions
// land in its own lane.
func (pr *Protocol) runDownAt(nw *congest.Network, node *congest.NodeState, sid congest.SessionID, spec *Spec, st *beState) {
	if spec.OnDown != nil {
		spec.OnDown(node, spec.Down, Emit{nw: nw, from: node.ID, sid: sid})
	}
	var local any
	if spec.unboxed() {
		st.acc = spec.LocalU(node, spec.Down)
	} else if spec.Local != nil {
		local = spec.Local(node, spec.Down)
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
		pr.echoUp(nw, node, sid, spec, st, local)
		return
	}
	if !spec.unboxed() {
		st.box = pr.getBox(nw.LaneID())
		st.box.local = local
	}
}

// echoUp finishes a node: aggregates, releases its state, and either
// completes the session (at the root) or echoes to the parent. On the
// boxed lane a leaf passes its Local value; a node that waited for
// children has it in its box.
func (pr *Protocol) echoUp(nw *congest.Network, node *congest.NodeState, sid congest.SessionID, spec *Spec, st *beState, local any) {
	parent, pos := st.parent, int(st.parentPos)
	if spec.unboxed() {
		val := st.acc
		pr.releaseBE(node, sid)
		if parent == 0 {
			pr.clearSpec(sid)
			nw.CompleteSessionU(sid, val, nil)
			return
		}
		nw.SendUAt(node.ID, pos, parent, KindUp, sid, spec.UpBits, val)
		return
	}
	var children []ChildEcho
	box := st.box
	if box != nil {
		local, children = box.local, box.children
	}
	val := spec.Combine(node, spec.Down, local, children)
	if box != nil {
		pr.putBox(nw.LaneID(), box)
	}
	pr.releaseBE(node, sid)
	if parent == 0 {
		pr.clearSpec(sid)
		nw.CompleteSession(sid, val, nil)
		return
	}
	nw.SendAt(node.ID, pos, parent, KindUp, sid, spec.UpBits, val)
}

func (pr *Protocol) onDown(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	spec := pr.specFor(msg.Session)
	if spec == nil {
		panic(fmt.Sprintf("tree: down message for unknown session %d", msg.Session))
	}
	pr.runDownAt(nw, node, msg.Session, spec, pr.claimBE(node, msg.Session, msg.From))
}

func (pr *Protocol) onUp(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	spec := pr.specFor(msg.Session)
	if spec == nil {
		panic(fmt.Sprintf("tree: up message for unknown session %d", msg.Session))
	}
	st := pr.stateBE(node, msg.Session)
	if st == nil {
		panic(fmt.Sprintf("tree: node %d got echo without broadcast state in session %d", node.ID, msg.Session))
	}
	if spec.unboxed() {
		if spec.CombineU != nil {
			st.acc = spec.CombineU(node, spec.Down, st.acc, msg.From, msg.U)
		} else {
			st.acc ^= msg.U
		}
	} else {
		st.box.children = append(st.box.children, ChildEcho{From: msg.From, Value: msg.Payload})
	}
	st.expected--
	if st.expected == 0 {
		pr.echoUp(nw, node, msg.Session, spec, st, nil)
	}
}
