package tree

import (
	"fmt"
	"sort"

	"kkt/internal/congest"
)

// CycleNode reports a node that detected (by timeout) that it lies on a
// cycle of marked edges: it heard from all marked neighbours except the
// two given ones, which are its neighbours along the cycle. (Paper §4.2:
// "the nodes on the cycle will be exactly the set of nodes which fail to
// hear from all but two of their neighbors.")
type CycleNode struct {
	Node        congest.NodeID
	Left, Right congest.NodeID
}

// ElectResult is the outcome of one global election wave.
type ElectResult struct {
	// Leaders holds the elected leader of every acyclic fragment
	// (including singleton nodes), in ascending ID order.
	Leaders []congest.NodeID
	// CycleNodes lists the nodes that detected they are on a cycle, in
	// ascending ID order. Empty when the marked subgraph is a forest.
	CycleNodes []CycleNode
}

// electState is the per-node automaton state of one election wave. Token
// receipts are a bitmask over the node's sorted edge slice (index =
// position in NodeState.Edges) instead of a neighbour-ID map: recvLow
// covers the first 64 incident edges inline, recvHigh spills lazily for
// high-degree nodes. States live in the Protocol's reusable per-node
// buffer, so a warm wave allocates nothing.
//
// Invariant: the topology must not mutate while a wave is in flight —
// edge positions are the receipt keys, so an insert/delete would shift
// them. The paper's algorithms only run elections on a quiescent
// topology; onToken panics if a token arrives over a vanished edge.
type electState struct {
	recvLow  uint64
	recvHigh []uint64
	sentTo   congest.NodeID
	decided  bool
	isLeader bool
}

// reset clears a state for a new wave, keeping spill capacity.
func (st *electState) reset() {
	for i := range st.recvHigh {
		st.recvHigh[i] = 0
	}
	st.recvLow = 0
	st.sentTo = 0
	st.decided = false
	st.isLeader = false
}

// markReceived records a token received over the i-th incident edge.
func (st *electState) markReceived(i int) {
	if i < 64 {
		st.recvLow |= 1 << uint(i)
		return
	}
	w := (i - 64) >> 6
	for len(st.recvHigh) <= w {
		st.recvHigh = append(st.recvHigh, 0)
	}
	st.recvHigh[w] |= 1 << uint((i-64)&63)
}

// received reports whether a token arrived over the i-th incident edge.
func (st *electState) received(i int) bool {
	if i < 64 {
		return st.recvLow&(1<<uint(i)) != 0
	}
	w := (i - 64) >> 6
	if w >= len(st.recvHigh) {
		return false
	}
	return st.recvHigh[w]&(1<<uint((i-64)&63)) != 0
}

// StartElectAll begins a synchronised election wave across all nodes: a
// leader per marked fragment, by the leaf-initiated median convergence of
// §3.3. All nodes start simultaneously (the network is synchronous and
// every node knows when an iteration begins). The session completes at
// quiescence — the simulator's "after the maximum time needed for leader
// election" — with an ElectResult.
func (pr *Protocol) StartElectAll() congest.SessionID {
	if o := pr.nw.Obs(); o != nil {
		o.Count("tree.elect", 1)
	}
	var sid congest.SessionID
	sid = pr.nw.NewSession(func() (any, error) { return pr.collectElection(sid) })
	n := pr.nw.N()
	var states []electState
	if pr.electSid == 0 {
		if cap(pr.electBuf) < n+1 {
			pr.electBuf = make([]electState, n+1)
		}
		pr.electBuf = pr.electBuf[:n+1]
		pr.electSid = sid
		states = pr.electBuf
	} else {
		states = make([]electState, n+1) // concurrent wave: rare, correct, slower
	}
	for v := 1; v <= n; v++ {
		node := pr.nw.Node(congest.NodeID(v))
		st := &states[node.Slot()]
		st.reset()
		node.SetSessionState(sid, st)
		pr.electMaybeAct(pr.nw, node, sid, st)
	}
	return sid
}

// ElectAll runs one election wave between Runs: StartElectAll, then Run
// up to the wave's quiescence, then Take.
func (pr *Protocol) ElectAll() (ElectResult, error) {
	sid := pr.StartElectAll()
	if err := pr.nw.Run(); err != nil {
		return ElectResult{}, err
	}
	res, err := pr.nw.Take(sid).Value()
	if err != nil {
		return ElectResult{}, err
	}
	return res.(ElectResult), nil
}

// electMaybeAct applies the election rules at a node:
//   - no marked neighbours: the node is a singleton fragment and its own
//     leader;
//   - heard from all marked neighbours: the node is a median; if its own
//     earlier token crossed with the last sender's, the higher ID of the
//     two adjacent medians wins;
//   - heard from all but one and not yet sent: send the token that way.
func (pr *Protocol) electMaybeAct(nw *congest.Network, node *congest.NodeState, sid congest.SessionID, st *electState) {
	if st.decided {
		return
	}
	// Inline walk over the sorted edge slice: this runs once per received
	// token, so it must not allocate a neighbour list.
	marked, pending := 0, 0
	var firstPending congest.NodeID
	for i := range node.Edges {
		he := &node.Edges[i]
		if !he.Marked {
			continue
		}
		marked++
		if !st.received(i) {
			pending++
			if pending == 1 {
				firstPending = he.Neighbor
			}
		}
	}
	if marked == 0 {
		st.decided = true
		st.isLeader = true
		return
	}
	switch pending {
	case 0:
		st.decided = true
		if st.sentTo == 0 {
			st.isLeader = true // sole median
		} else {
			st.isLeader = node.ID > st.sentTo // two adjacent medians
		}
	case 1:
		if st.sentTo == 0 {
			st.sentTo = firstPending
			nw.Send(node.ID, firstPending, KindToken, sid, 8, nil)
		}
	}
}

func (pr *Protocol) onToken(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	raw := node.SessionState(msg.Session)
	st, ok := raw.(*electState)
	if !ok {
		panic(fmt.Sprintf("tree: node %d got election token without state in session %d", node.ID, msg.Session))
	}
	i := node.EdgeIndex(msg.From)
	if i < 0 {
		panic(fmt.Sprintf("tree: node %d got election token over vanished edge from %d — topology mutated mid-wave", node.ID, msg.From))
	}
	st.markReceived(i)
	pr.electMaybeAct(nw, node, msg.Session, st)
}

// collectElection is the quiescence callback: gather leaders and stuck
// (cycle) nodes, clean up all per-node state, and release the wave buffer.
func (pr *Protocol) collectElection(sid congest.SessionID) (any, error) {
	var res ElectResult
	for v := 1; v <= pr.nw.N(); v++ {
		node := pr.nw.Node(congest.NodeID(v))
		raw := node.SessionState(sid)
		st, ok := raw.(*electState)
		if !ok {
			continue
		}
		if st.decided && st.isLeader {
			res.Leaders = append(res.Leaders, node.ID)
		}
		if !st.decided {
			// Count pending neighbours without building a list: most
			// undecided nodes are interior path nodes with exactly one
			// pending edge, and this sweep visits every node.
			pending := 0
			var left, right congest.NodeID
			for i := range node.Edges {
				if node.Edges[i].Marked && !st.received(i) {
					switch pending {
					case 0:
						left = node.Edges[i].Neighbor
					case 1:
						right = node.Edges[i].Neighbor
					}
					pending++
				}
			}
			if pending == 2 {
				res.CycleNodes = append(res.CycleNodes, CycleNode{Node: node.ID, Left: left, Right: right})
			}
		}
		node.SetSessionState(sid, nil)
	}
	if pr.electSid == sid {
		pr.electSid = 0
	}
	sort.Slice(res.Leaders, func(i, j int) bool { return res.Leaders[i] < res.Leaders[j] })
	sort.Slice(res.CycleNodes, func(i, j int) bool { return res.CycleNodes[i].Node < res.CycleNodes[j].Node })
	return res, nil
}
