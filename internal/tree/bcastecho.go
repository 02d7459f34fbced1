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
// edge).
type Emit func(to congest.NodeID, kind congest.KindID, bits int, payload any)

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
//     paper's sketches). Words travel in Message.U, fold into a per-node
//     accumulator as they arrive, and complete the session via
//     CompleteSessionU — no interface allocation anywhere on the path.
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
	// CombineU folds one child's echo word into the accumulator (unboxed
	// lane). The fold must be commutative and associative, since echoes
	// fold in arrival order. nil means XOR.
	CombineU func(node *congest.NodeState, down any, acc, child uint64) uint64
	// OnDown, if non-nil, runs at every node when the broadcast arrives
	// (including the root at start) and may mutate local state and emit
	// extra messages. Used for marking instructions.
	OnDown func(node *congest.NodeState, down any, emit Emit)
}

// unboxed reports which echo lane the spec uses.
func (s *Spec) unboxed() bool { return s.LocalU != nil }

// beState is the per-node automaton state of one broadcast-and-echo.
// States are recycled through the Protocol's free list; children keeps its
// backing array across sessions, so a warm protocol performs whole
// broadcast-and-echoes without allocating.
type beState struct {
	parent   congest.NodeID // 0 at the root
	expected int            // children still to echo
	children []ChildEcho    // boxed lane only
	local    any            // boxed lane
	acc      uint64         // unboxed lane accumulator
}

// getBE pops a recycled beState (or allocates) and initialises it. The
// lane index keys the per-shard free list: handlers pass the lane of the
// network view they were handed, so workers only ever touch their own
// list.
func (pr *Protocol) getBE(lane int, parent congest.NodeID) *beState {
	free := pr.beFree[lane]
	if n := len(free); n > 0 {
		st := free[n-1]
		free[n-1] = nil
		pr.beFree[lane] = free[:n-1]
		st.parent = parent
		return st
	}
	return &beState{parent: parent}
}

// putBE recycles a finished beState, dropping value references for GC but
// keeping slice capacity.
func (pr *Protocol) putBE(lane int, st *beState) {
	for i := range st.children {
		st.children[i] = ChildEcho{}
	}
	st.children = st.children[:0]
	*st = beState{children: st.children}
	pr.beFree[lane] = append(pr.beFree[lane], st)
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
// marked edges. The returned session completes (at the initiating driver)
// with Combine's value at the root — CombineU's word, via AwaitU, on the
// unboxed lane. The marked subgraph containing root must be a tree,
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
	st := pr.getBE(pr.nw.LaneID(), 0)
	pr.runDownAt(pr.nw, node, sid, spec, st)
	return sid
}

// BroadcastEcho is the blocking driver helper: start, await, return.
func (pr *Protocol) BroadcastEcho(p *congest.Proc, root congest.NodeID, spec *Spec) (any, error) {
	sid := pr.StartBroadcastEcho(root, spec)
	return p.Await(sid)
}

// BroadcastEchoU is BroadcastEcho for unboxed-lane specs: the root's word
// comes back without ever being boxed.
func (pr *Protocol) BroadcastEchoU(p *congest.Proc, root congest.NodeID, spec *Spec) (uint64, error) {
	sid := pr.StartBroadcastEcho(root, spec)
	return p.AwaitU(sid)
}

// runDownAt performs the on-broadcast work at a node: side effects, local
// compute, forwarding, and the immediate echo when the node is a leaf.
// All engine calls go through nw — the network view the caller was handed
// — so a shard worker's sends and completions land in its own lane.
func (pr *Protocol) runDownAt(nw *congest.Network, node *congest.NodeState, sid congest.SessionID, spec *Spec, st *beState) {
	if spec.OnDown != nil {
		spec.OnDown(node, spec.Down, func(to congest.NodeID, kind congest.KindID, bits int, payload any) {
			nw.Send(node.ID, to, kind, sid, bits, payload)
		})
	}
	if spec.unboxed() {
		st.acc = spec.LocalU(node, spec.Down)
	} else if spec.Local != nil {
		st.local = spec.Local(node, spec.Down)
	}
	for i := range node.Edges {
		he := &node.Edges[i]
		if he.Marked && he.Neighbor != st.parent {
			st.expected++
			nw.Send(node.ID, he.Neighbor, KindDown, sid, spec.DownBits, spec.Down)
		}
	}
	if st.expected == 0 {
		pr.echoUp(nw, node, sid, spec, st)
		return
	}
	node.SetSessionState(sid, st)
}

// echoUp finishes a node: aggregates and either completes the session (at
// the root) or echoes to the parent.
func (pr *Protocol) echoUp(nw *congest.Network, node *congest.NodeState, sid congest.SessionID, spec *Spec, st *beState) {
	parent := st.parent
	lane := nw.LaneID()
	if spec.unboxed() {
		val := st.acc
		node.SetSessionState(sid, nil)
		pr.putBE(lane, st)
		if parent == 0 {
			pr.clearSpec(sid)
			nw.CompleteSessionU(sid, val, nil)
			return
		}
		nw.SendU(node.ID, parent, KindUp, sid, spec.UpBits, val)
		return
	}
	val := spec.Combine(node, spec.Down, st.local, st.children)
	node.SetSessionState(sid, nil)
	pr.putBE(lane, st)
	if parent == 0 {
		pr.clearSpec(sid)
		nw.CompleteSession(sid, val, nil)
		return
	}
	nw.Send(node.ID, parent, KindUp, sid, spec.UpBits, val)
}

func (pr *Protocol) onDown(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	spec := pr.specFor(msg.Session)
	if spec == nil {
		panic(fmt.Sprintf("tree: down message for unknown session %d", msg.Session))
	}
	if node.SessionState(msg.Session) != nil {
		panic(fmt.Sprintf("tree: node %d got a second broadcast in session %d — marked subgraph is not a tree", node.ID, msg.Session))
	}
	st := pr.getBE(nw.LaneID(), msg.From)
	pr.runDownAt(nw, node, msg.Session, spec, st)
}

func (pr *Protocol) onUp(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	spec := pr.specFor(msg.Session)
	if spec == nil {
		panic(fmt.Sprintf("tree: up message for unknown session %d", msg.Session))
	}
	raw := node.SessionState(msg.Session)
	st, ok := raw.(*beState)
	if !ok {
		panic(fmt.Sprintf("tree: node %d got echo without broadcast state in session %d", node.ID, msg.Session))
	}
	if spec.unboxed() {
		if spec.CombineU != nil {
			st.acc = spec.CombineU(node, spec.Down, st.acc, msg.U)
		} else {
			st.acc ^= msg.U
		}
	} else {
		st.children = append(st.children, ChildEcho{From: msg.From, Value: msg.Payload})
	}
	st.expected--
	if st.expected == 0 {
		pr.echoUp(nw, node, msg.Session, spec, st)
	}
}
