// Package ghs is the classical baseline the paper improves on: a
// synchronous Borůvka/GHS-style MST construction with the Gallager-
// Humblet-Spira message profile O(m + n log n) [13].
//
// Each phase, every fragment broadcasts its identity down its tree; every
// node then probes its cheapest incident candidate edges one at a time
// ("test"), and the probed neighbour answers accept (different fragment)
// or reject (same fragment). A node orders its incident edges by weight
// once per build and each phase walks that order, skipping tree edges and
// cached rejections. A rejected edge is internal forever
// (fragments only merge), so both endpoints cache the rejection and never
// test it again — that cache is why GHS is *not* impromptu: it keeps
// O(deg) bits of state per node between operations, which is exactly the
// contrast the paper draws. Each edge is rejected at most once over the
// whole run, giving the O(m) term; the per-phase tree traffic gives the
// O(n log n) term.
package ghs

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"kkt/internal/congest"
	"kkt/internal/tree"
)

// Message kinds, interned once at package init.
var (
	KindFrag   = congest.Kind("ghs.frag")   // fragment-identity broadcast
	KindTest   = congest.Kind("ghs.test")   // edge probe
	KindStatus = congest.Kind("ghs.status") // accept/reject reply
	KindReport = congest.Kind("ghs.report") // convergecast of the minimum candidate
)

// candidate is a minimum-outgoing-edge candidate.
type candidate struct {
	composite uint64
	edgeNum   uint64
	valid     bool
}

// nodeState is one node's GHS automaton state. The rejection cache
// persists across phases (the non-impromptu O(deg) state the paper
// contrasts with); the rest is per-phase. Rejections are a bitmask over
// the node's sorted edge slice (index = position in NodeState.Edges):
// rejLow covers the first 64 incident edges inline, rejHigh spills lazily
// for high-degree nodes — no per-node map, and re-entering a phase
// allocates nothing once warm.
//
// The probe order is fixed once per build: phase 1 sorts the node's edge
// positions by composite weight into order, and every phase filters that
// order into probes. A phase sorts nothing.
//
// Invariant: the topology must not mutate during a build — edge positions
// key the cache and the probe order, so an insert/delete would shift
// them. GHS only runs as a build on a static topology (repairs never use
// it).
type nodeState struct {
	rejLow  uint64
	rejHigh []uint64

	phase     int
	fragID    congest.NodeID
	parent    congest.NodeID
	expected  int               // children reports still missing
	ownBest   candidate         // the node's own accepted candidate
	childBest candidate         // minimum over children's reports
	ownDone   bool              // this node's probing finished
	probeIdx  int               // position in probes
	probing   bool              // a test, of probes[probeIdx], is in flight
	reported  bool              // report went up (or completed, at the root)
	order     []int32           // every edge index into NodeState.Edges, cheapest first
	probes    []int32           // this phase's candidates: order minus marked and rejected
	deferred  []deferredTest    // tests from the next phase, answered on entry
	session   congest.SessionID // root only: fragment session to complete
}

// reject caches that the i-th incident edge is internal forever.
func (st *nodeState) reject(i int) {
	if i < 64 {
		st.rejLow |= 1 << uint(i)
		return
	}
	w := (i - 64) >> 6
	for len(st.rejHigh) <= w {
		st.rejHigh = append(st.rejHigh, 0)
	}
	st.rejHigh[w] |= 1 << uint((i-64)&63)
}

// isRejected reports whether the i-th incident edge is cached as internal.
func (st *nodeState) isRejected(i int) bool {
	if i < 64 {
		return st.rejLow&(1<<uint(i)) != 0
	}
	w := (i - 64) >> 6
	if w >= len(st.rejHigh) {
		return false
	}
	return st.rejHigh[w]&(1<<uint((i-64)&63)) != 0
}

// Protocol is the per-network GHS instance.
type Protocol struct {
	nw    *congest.Network
	state []nodeState
}

// Attach registers the GHS handlers. Call once per network, after
// tree.Attach (Build reuses tree's broadcast-and-echo for Add-Edge).
func Attach(nw *congest.Network) *Protocol {
	g := &Protocol{nw: nw, state: make([]nodeState, nw.N()+1)}
	nw.RegisterHandler(KindFrag, g.onFrag)
	nw.RegisterHandler(KindTest, g.onTest)
	nw.RegisterHandler(KindStatus, g.onStatus)
	nw.RegisterHandler(KindReport, g.onReport)
	return g
}

// PhaseStat records one GHS phase.
type PhaseStat struct {
	// Fragments is the number of fragments at the start of the phase;
	// Merges the number whose minimum-outgoing-edge search succeeded.
	Fragments int
	Merges    int
	// Messages, Bits and Rounds are the phase's cost; Classes breaks it
	// down by kind class (sorted by class name).
	Messages uint64
	Bits     uint64
	Rounds   int64
	Classes  []congest.ClassCost
}

// BuildResult reports a GHS run.
type BuildResult struct {
	Forest [][2]congest.NodeID
	Phases int
	// PhaseStats has one entry per executed phase (len == Phases).
	PhaseStats []PhaseStat
	Messages   uint64
	Bits       uint64
	Rounds     int64
}

// Build constructs the minimum spanning forest deterministically.
func Build(nw *congest.Network, pr *tree.Protocol, g *Protocol) (BuildResult, error) {
	var result BuildResult
	maxPhases := int(math.Ceil(math.Log2(float64(nw.N())))) + 2
	fan := tree.NewFanout(pr, "ghs", "ghs", func() *search { return &search{g: g} }, (*search).Arm)
	for phase := 1; ; phase++ {
		if phase > maxPhases {
			return result, fmt.Errorf("ghs: exceeded %d phases — not converging", maxPhases)
		}
		fan.Begin()
		elect, err := pr.ElectAll()
		if err != nil {
			return result, err
		}
		if len(elect.CycleNodes) > 0 {
			return result, fmt.Errorf("ghs: cycle in marked subgraph at phase %d", phase)
		}
		result.Phases = phase
		tally, cost, err := fan.Run(phase, elect.Leaders)
		if err != nil {
			return result, err
		}
		stat := PhaseStat{Fragments: len(elect.Leaders), Merges: tally[tree.FoundEdge]}
		stat.Messages, stat.Bits, stat.Rounds = cost.Messages, cost.Bits, cost.Rounds
		stat.Classes = cost.Classes
		result.PhaseStats = append(result.PhaseStats, stat)
		if stat.Merges == 0 {
			break // every fragment is maximal: done, deterministically
		}
	}
	result.Forest = nw.MarkedEdges()
	result.Messages, result.Bits = nw.Totals()
	result.Rounds = nw.Now()
	return result, nil
}

// search is one fragment's GHS convergecast in one phase: enter the phase
// at the leader, which broadcasts the fragment identity, then await the
// convergecast report of the minimum outgoing candidate.
type search struct {
	g       *Protocol
	leader  congest.NodeID
	phase   int
	started bool // the fragment session is in flight
	cand    candidate
}

// Arm readies the search for one phase's fragment (the fan-out's arm).
func (s *search) Arm(phase int, leader congest.NodeID) {
	s.leader, s.phase = leader, phase
	s.started, s.cand = false, candidate{}
}

// Found implements tree.Search. GHS is deterministic: a fragment without
// a candidate has an empty cut.
func (s *search) Found() (uint64, tree.Outcome) {
	if !s.cand.valid {
		return 0, tree.EmptyCut
	}
	return s.cand.edgeNum, tree.FoundEdge
}

// Step implements congest.StepDriver.
func (s *search) Step(_ *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	if !s.started {
		// The fragment session completes with the convergecast report.
		s.started = true
		nw := s.g.nw
		sid := nw.NewSession(nil)
		st := &s.g.state[s.leader]
		st.session = sid
		s.g.enterPhase(nw, nw.Node(s.leader), st, s.phase, s.leader, 0)
		return sid, false, nil
	}
	v, err := w.Value()
	if err != nil {
		return 0, true, err
	}
	s.cand = v.(candidate)
	return 0, true, nil
}

// enterPhase initialises a node's per-phase state, forwards the fragment
// broadcast to its tree children, answers deferred probes and starts its
// own probing. nw is the network view of the calling context (the shard
// view inside handlers), so every send lands in the right lane.
func (g *Protocol) enterPhase(nw *congest.Network, node *congest.NodeState, st *nodeState, phase int, fragID, parent congest.NodeID) {
	st.phase = phase
	st.fragID = fragID
	st.parent = parent
	st.ownBest = candidate{}
	st.childBest = candidate{}
	st.ownDone = false
	st.probeIdx = 0
	st.probing = false
	st.reported = false
	st.expected = 0
	for i := range node.Edges {
		he := &node.Edges[i]
		if he.Marked && he.Neighbor != parent {
			st.expected++
			nw.SendUAt(node.ID, i, he.Neighbor, KindFrag, 0, 64, packPhaseFrag(phase, fragID))
		}
	}
	// candidate edges: unmarked, not rejected, cheapest first (composites
	// are unique, so the order is deterministic). The buffers recycle
	// across phases and builds.
	if phase == 1 {
		st.order = st.order[:0]
		for i := range node.Edges {
			st.order = append(st.order, int32(i))
		}
		edges := node.Edges
		slices.SortFunc(st.order, func(a, b int32) int {
			return cmp.Compare(edges[a].Composite, edges[b].Composite)
		})
	}
	st.probes = st.probes[:0]
	for _, i := range st.order {
		if !node.Edges[i].Marked && !st.isRejected(int(i)) {
			st.probes = append(st.probes, i)
		}
	}
	// answer probes that arrived before we entered the phase.
	deferred := st.deferred
	st.deferred = nil
	for _, d := range deferred {
		g.answerTest(nw, node, d.from, d.tm)
	}
	g.advanceProbe(nw, node, st)
}

// deferredTest is a probe that arrived ahead of its phase; the payload is
// copied out of the Message, which the engine recycles after the handler
// returns.
type deferredTest struct {
	from congest.NodeID
	tm   testMsg
}

type testMsg struct {
	Phase  int
	FragID congest.NodeID
}

// Frag and test messages carry (phase, fragment ID) — two small fields
// packed into the unboxed message word so the per-phase tree broadcast and
// the edge probes never box a payload.
func packPhaseFrag(phase int, fragID congest.NodeID) uint64 {
	return uint64(phase)<<32 | uint64(fragID)
}

func unpackPhaseFrag(u uint64) (phase int, fragID congest.NodeID) {
	return int(u >> 32), congest.NodeID(u & 0xffffffff)
}

// advanceProbe sends the next test, or finishes the node's local part.
// A node always completes its own probing: a child's report must not
// suppress a possibly lighter local candidate.
func (g *Protocol) advanceProbe(nw *congest.Network, node *congest.NodeState, st *nodeState) {
	if st.probing || st.ownDone {
		g.maybeReport(nw, node, st)
		return
	}
	for st.probeIdx < len(st.probes) {
		ei := int(st.probes[st.probeIdx])
		if st.isRejected(ei) { // rejected by the other side mid-phase
			st.probeIdx++
			continue
		}
		st.probing = true
		nw.SendUAt(node.ID, ei, node.Edges[ei].Neighbor, KindTest, 0, 64, packPhaseFrag(st.phase, st.fragID))
		return
	}
	st.ownDone = true
	g.maybeReport(nw, node, st)
}

// maybeReport sends the report up once probing is done and all children
// reported.
func (g *Protocol) maybeReport(nw *congest.Network, node *congest.NodeState, st *nodeState) {
	if st.probing || !st.ownDone || st.expected > 0 || st.reported {
		return
	}
	st.reported = true
	best := st.ownBest
	if st.childBest.valid && (!best.valid || st.childBest.composite < best.composite) {
		best = st.childBest
	}
	if st.parent == 0 {
		nw.CompleteSession(st.session, best, nil)
		return
	}
	nw.Send(node.ID, st.parent, KindReport, 0, 129, best)
}

func (g *Protocol) onFrag(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	phase, fragID := unpackPhaseFrag(msg.U)
	g.enterPhase(nw, node, &g.state[node.ID], phase, fragID, msg.From)
}

func (g *Protocol) onTest(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	phase, fragID := unpackPhaseFrag(msg.U)
	g.answerTest(nw, node, msg.From, testMsg{Phase: phase, FragID: fragID})
}

func (g *Protocol) answerTest(nw *congest.Network, node *congest.NodeState, from congest.NodeID, tm testMsg) {
	st := &g.state[node.ID]
	if tm.Phase > st.phase {
		st.deferred = append(st.deferred, deferredTest{from: from, tm: tm})
		return
	}
	ei := node.EdgeIndex(from)
	accept := st.fragID != tm.FragID
	if !accept {
		// internal forever: cache the rejection on this side too.
		st.reject(ei)
	}
	var word uint64
	if accept {
		word = 1
	}
	nw.SendUAt(node.ID, ei, from, KindStatus, 0, 8, word)
}

// onStatus takes the answer to the node's one test in flight, which
// probed the edge at probes[probeIdx].
func (g *Protocol) onStatus(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	st := &g.state[node.ID]
	if !st.probing {
		panic(fmt.Sprintf("ghs: node %d got a status from %d with no test in flight", node.ID, msg.From))
	}
	ei := int(st.probes[st.probeIdx])
	he := &node.Edges[ei]
	if he.Neighbor != msg.From {
		panic(fmt.Sprintf("ghs: node %d got a status from %d, its test in flight went to %d", node.ID, msg.From, he.Neighbor))
	}
	st.probing = false
	if msg.U != 0 {
		// probing in increasing weight order: the first accept is the
		// node's minimum outgoing edge.
		st.ownBest = candidate{composite: he.Composite, edgeNum: node.EdgeNum(he), valid: true}
		st.ownDone = true
	} else {
		st.reject(ei)
		st.probeIdx++
	}
	g.advanceProbe(nw, node, st)
}

func (g *Protocol) onReport(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
	st := &g.state[node.ID]
	c := msg.Payload.(candidate)
	if c.valid && (!st.childBest.valid || c.composite < st.childBest.composite) {
		st.childBest = c
	}
	st.expected--
	g.maybeReport(nw, node, st)
}
