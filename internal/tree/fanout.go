package tree

import (
	"fmt"

	"kkt/internal/congest"
)

// Outcome is how a finished Search ended.
type Outcome int

const (
	// FoundEdge: the search selected an outgoing edge.
	FoundEdge Outcome = iota + 1
	// EmptyCut: no edge leaves the tree (w.h.p. for the sketch searches).
	EmptyCut
	// GaveUp: the randomized search spent its budget without an answer.
	GaveUp
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case FoundEdge:
		return "found"
	case EmptyCut:
		return "empty-cut"
	case GaveUp:
		return "gave-up"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Search is a search for an edge leaving the tree of its root, run as a
// continuation driver: FindMin (the MSF), FindAny (the spanning forest)
// or the GHS convergecast. Borůvka phases run one per fragment under
// Fanout; repairs run one per deleted tree edge.
type Search interface {
	congest.StepDriver
	// Found reports how a finished search ended and, for FoundEdge, the
	// edge it selected.
	Found() (edgeNum uint64, o Outcome)
}

// Tally counts a phase's finished searches by Outcome.
type Tally [GaveUp + 1]int

// Fanout is the shared body of a Borůvka phase (paper §3.3): given the
// elected fragment leaders, it runs one Search per fragment as a
// continuation task, broadcasts Add Edge for every edge found (step (c)),
// waits out the phase barrier and applies the staged marks (step (d)). It
// also owns the phase's cost bracket: the PhaseMeter and the observer's
// PhaseStart/PhaseEnd annotations.
//
// A Fanout lives for one Build. A fragment binds a search from the
// fan-out's free list on its first Step, arms it there and returns it as
// soon as it has read the outcome, so the searches built are the most
// that were parked at once, not the fragment count: a one-node
// broadcast-and-echo completes at once, so the singleton fragments of
// phase 1 run to completion one after another on a single search. With
// the engine's task pool, a warm phase spawns its whole fan-out without
// allocating.
type Fanout[S Search] struct {
	pr        *Protocol
	proto     string
	prefix    string
	newSearch func() S
	arm       func(s S, phase int, leader congest.NodeID)

	meter congest.PhaseMeter
	phase int
	free  []S // searches bound to no running fragment
	tally Tally
	frags []fragment[S]

	// relayout is set by OrderStorage to the skip rule's verdict on the
	// network (relayoutPays); order, stack and seen (stamped with stamp)
	// are fragmentOrder's scratch, kept across phases.
	relayout bool
	order    []congest.NodeID
	stack    []congest.NodeID
	seen     []uint32
	stamp    uint32
}

// The skip rule: a fan-out that asked for storage order (OrderStorage)
// re-lays out node storage in fragment order (see Run) only on a network
// of at least relayoutMinNodes nodes whose average degree is at most
// relayoutMaxDegree, and only when some fragment has two nodes or more.
// Both bounds come from timing Build MST on gnm graphs with a re-layout
// every phase against none, 10 interleaved pairs a point
// (docs/ARCHITECTURE.md, rule 6, has the table). At average degree 6 and
// 16 the re-layout gained from 4096 nodes up, 11% to 16% at 16384 and
// 32768 nodes, while at 1024 nodes no gain showed; there it would only add its scratch
// to every small build. At degree 32 it was flat, at 64 it lost at most
// sizes, and on the dense ladder's top rung, gnm(2048, n²/8), it took
// 2.20 s against 1.34 s: a window that spans many cache lines gains little
// from its neighbours and costs its full length to move.
const (
	relayoutMinNodes  = 1 << 12
	relayoutMaxDegree = 16
)

// relayoutPays applies the size and degree parts of the skip rule.
func relayoutPays(nw *congest.Network) bool {
	n := nw.N()
	if n < relayoutMinNodes {
		return false
	}
	halves := 0
	for v := 1; v <= n; v++ {
		halves += len(nw.Node(congest.NodeID(v)).Edges)
	}
	return halves <= relayoutMaxDegree*n
}

// NewFanout returns a fan-out over pr. proto names the protocol in the
// observer's phase annotations ("mst"), prefix names the per-fragment
// tasks ("<prefix>-p<phase>-f<leader>"), newSearch builds a search
// whenever a fragment starts while every search built so far is bound,
// and arm readies one for the fragment led by leader as it starts. arm
// must depend only on (phase, leader), so the start order draws nothing.
func NewFanout[S Search](pr *Protocol, proto, prefix string, newSearch func() S, arm func(s S, phase int, leader congest.NodeID)) *Fanout[S] {
	return &Fanout[S]{pr: pr, proto: proto, prefix: prefix, newSearch: newSearch, arm: arm}
}

// OrderStorage has every later Run move node storage into fragment order
// before it spawns, in the phases the skip rule lets through. Only a
// protocol whose phases repay the move calls it. Build MST does: its
// phases send about 60 messages per node on gnm 100k/300k, most of them
// along tree edges. GHS and Build ST do not. On a 2-vCPU Xeon, 10
// interleaved pairs each, re-laying out every phase slowed a GHS build
// on gnm 100k/200k from 1.89 to 2.31 s (about 6 messages per node a
// phase, many of them tests over non-tree edges) and a Build ST on gnm
// 16384/49152 from 0.97 to 1.06 s.
func (f *Fanout[S]) OrderStorage() { f.relayout = relayoutPays(f.pr.nw) }

// Begin opens a phase's cost bracket. Call it before the phase's
// elections, so their traffic is charged to the phase.
func (f *Fanout[S]) Begin() { f.meter.Begin(f.pr.nw) }

// Run executes the rest of the phase opened by Begin: spawn one fragment
// task per leader (in the given order, which fixes session serials), run
// the network to the phase barrier, then ApplyStaged. It returns the
// phase's searches tallied by outcome, together with the phase cost.
//
// Before it spawns, Run moves node storage into fragment order
// (congest.Network.Relayout), unless the skip rule says it cannot pay
// (relayoutMinNodes) or the protocol did not ask for it (OrderStorage): fragments in leader order, and each fragment in DFS
// preorder of its marked tree from the leader, children in Edges order.
// Almost every message of the phase travels a tree edge inside one
// fragment, so consecutive deliveries then touch nearby states, windows
// and slots. The move is invisible: no ID, draw or counter changes.
func (f *Fanout[S]) Run(phase int, leaders []congest.NodeID) (Tally, congest.PhaseCosts, error) {
	nw := f.pr.nw
	if o := nw.Obs(); o != nil {
		o.PhaseStart(f.proto, phase, len(leaders), nw.Now())
	}
	if f.relayout && len(leaders) < nw.N() && f.fragmentOrder(leaders) {
		nw.Relayout(f.order)
	}
	n := len(leaders)
	if len(f.frags) < n {
		f.frags = make([]fragment[S], n)
	}
	f.phase, f.tally = phase, Tally{}
	for i, leader := range leaders {
		fr := &f.frags[i]
		fr.fan, fr.leader, fr.bound, fr.adding = f, leader, false, false
		nw.SpawnStep(f.prefix, uint64(phase), uint64(leader), fr)
	}
	// Phase barrier ("while time < i*maxTime wait"): Run returns once every
	// search and Add-Edge broadcast has finished and the network is
	// quiescent. Then the waiting nodes' local mark application.
	if err := nw.Run(); err != nil {
		return Tally{}, congest.PhaseCosts{}, err
	}
	nw.ApplyStaged()
	cost := f.meter.End()
	if o := nw.Obs(); o != nil {
		o.PhaseEnd(f.proto, phase, nw.Now(), cost)
	}
	return f.tally, cost, nil
}

// fragmentOrder fills f.order with every node, fragment by fragment in
// leader order, each fragment in DFS preorder of its marked tree from its
// leader with children in Edges order. It reports false, and the phase
// keeps its layout, when the leaders do not reach every node exactly once.
func (f *Fanout[S]) fragmentOrder(leaders []congest.NodeID) bool {
	nw := f.pr.nw
	n := nw.N()
	if len(f.seen) != n+1 {
		f.seen, f.stamp = make([]uint32, n+1), 0
	}
	f.stamp++
	seen, stamp := f.seen, f.stamp
	order, stack := f.order[:0], f.stack[:0]
	for _, leader := range leaders {
		if seen[leader] == stamp {
			return false
		}
		seen[leader] = stamp
		stack = append(stack, leader)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			order = append(order, v)
			// Push the children in reverse, so they pop in Edges order.
			edges := nw.Node(v).Edges
			for i := len(edges) - 1; i >= 0; i-- {
				if he := &edges[i]; he.Marked && seen[he.Neighbor] != stamp {
					seen[he.Neighbor] = stamp
					stack = append(stack, he.Neighbor)
				}
			}
		}
	}
	f.order, f.stack = order, stack
	return len(order) == n
}

// fragment is the task body of one fragment in one phase: the search,
// then (when it found an edge) the Add-Edge broadcast-and-echo, whose
// endpoints stage marks that the phase barrier applies.
type fragment[S Search] struct {
	fan    *Fanout[S]
	search S // bound from the first Step until the outcome is read
	leader congest.NodeID
	bound  bool
	adding bool // the Add-Edge broadcast is in flight
}

// Step implements congest.StepDriver.
func (fr *fragment[S]) Step(t *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	if fr.adding {
		return 0, true, w.Err()
	}
	f := fr.fan
	if !fr.bound {
		if n := len(f.free); n > 0 {
			fr.search, f.free = f.free[n-1], f.free[:n-1]
		} else {
			fr.search = f.newSearch()
		}
		fr.bound = true
		f.arm(fr.search, f.phase, fr.leader)
	}
	next, done, err := fr.search.Step(t, w)
	if !done {
		return next, false, nil
	}
	if err != nil {
		return 0, true, err
	}
	edgeNum, o := fr.search.Found()
	f.free = append(f.free, fr.search)
	f.tally[o]++
	if o != FoundEdge {
		return 0, true, nil
	}
	fr.adding = true
	return f.pr.StartBroadcastEcho(fr.leader, AddEdgeSpec(edgeNum)), false, nil
}
