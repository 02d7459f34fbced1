package congest

import (
	"context"
	"fmt"
	"sort"

	"kkt/internal/bitwidth"
	"kkt/internal/graph"
	"kkt/internal/rng"
	"kkt/internal/shard"
)

// NodeID identifies a processor; IDs are 1..n (compact, post-fingerprint).
type NodeID uint32

// SessionID identifies one protocol execution (one broadcast-and-echo, one
// election wave, ...). Messages carry it so concurrent executions on
// overlapping trees do not interfere.
//
// The ID packs a recycled slot index (low bits) with a monotonically
// increasing serial (high bits). The slot indexes the engine's flat
// session table — no map on the hot path — and the serial acts as the
// slot's generation stamp: a stale ID whose slot has been reused fails the
// stamp check and resolves to "unknown session".
type SessionID uint64

// sessSlotBits is the width of the slot field in a SessionID: up to ~4M
// concurrent sessions, leaving 42 bits of serial (never wraps in practice).
const (
	sessSlotBits = 22
	sessSlotMask = 1<<sessSlotBits - 1
)

// Slot returns the session's slot index in the engine's session table.
// Protocol layers use it to key their own slot-indexed side tables.
func (sid SessionID) Slot() int { return int(sid & sessSlotMask) }

// Serial returns the session's creation serial: the n-th NewSession call
// on a network returns serial n. Unlike the packed ID it does not depend
// on slot recycling order; observers and watchdog dumps report it.
func (sid SessionID) Serial() uint64 { return uint64(sid >> sessSlotBits) }

// FramingBits is charged on top of each message's declared payload for the
// kind tag and session identifier: O(log n) bits, well within one word.
const FramingBits = 48

// Message is a single CONGEST message in flight. The engine owns the
// struct and recycles it through a free list after the handler returns:
// handlers must not retain a *Message (copy the fields they need).
type Message struct {
	From, To NodeID
	Kind     KindID
	Session  SessionID
	// Bits is the payload size; FramingBits is added when charging.
	Bits    int
	Payload any
	// U is the unboxed single-word payload lane (SendU): protocol words
	// (parities, XORs, counters) travel here without interface boxing.
	// Valid only for messages sent with SendU; Payload is nil then.
	U uint64

	seq       uint64 // global send order, for deterministic tie-breaks
	deliverAt int64  // async delivery time (sync: round number)
}

// HalfEdge is one endpoint's local view of an incident link: everything a
// node knows under KT1 — the neighbour's ID, the weight, and its own mark.
// It is 24 bytes: the raw weight and the edge number are the two halves of
// the composite weight, split by NodeState.Raw and NodeState.EdgeNum.
type HalfEdge struct {
	Neighbor NodeID
	Marked   bool // does this endpoint consider the edge a tree edge?
	// Composite is the unique composite weight: the raw weight in [1,u]
	// in the high bits, the paper's edge number (IDs concatenated,
	// smallest first) in the low bits.
	Composite uint64

	// lastSched is the async scheduler's per-directed-link FIFO state: the
	// deliverAt of the last message scheduled from this endpoint to
	// Neighbor. Folding it into the half-edge removes the last map from the
	// async hot path; deleted links stash the value in Network.fifoTomb so
	// a delete/reinsert keeps the exact FIFO semantics of the old map.
	lastSched int64
}

// NodeState is the entire local state of one processor. Protocol code
// receives a *NodeState and must treat it as the only state it can touch —
// that is the locality discipline of the model.
type NodeState struct {
	ID NodeID
	// place packs the node's storage slot (Slot) above the layout's
	// edge-number width (the low placeBits bits: the low bits of every
	// incident composite weight, see EdgeNumMask). Both fit beside ID in
	// the struct's first word, on the line the delivery warm pass loads.
	place uint32
	// Edges lists incident links sorted by neighbour ID. The sorted slice
	// is also the neighbour index: lookups binary-search it, so there is
	// no side map to rebuild on topology changes. NewNetwork makes it a
	// cap-limited window of one backing array shared by all nodes.
	Edges []HalfEdge

	// sess holds per-protocol automaton state keyed by session ID: a tiny
	// linear-scanned vector instead of a map, because a node participates
	// in at most a handful of sessions at once (a global election, and the
	// rare second broadcast-and-echo that overflows package tree's
	// per-node slot). The full packed ID —
	// slot plus generation serial — is compared, so a recycled slot can
	// never alias a stale entry. Entry capacity is retained across
	// sessions, so steady-state stores allocate nothing.
	sess   []sessEntry
	staged []stagedMark // mark changes deferred to the next barrier
}

// sessEntry is one node-local (session, automaton state) binding.
type sessEntry struct {
	sid   SessionID
	state any
}

// stagedMark is a deferred mark change, applied at a synchronisation
// barrier — the paper's "while waiting [for the phase to end], if any Add
// Edge message is received over an edge, mark that edge" (Build MST step
// d). Deferring keeps tree membership stable while other fragments'
// broadcast-and-echoes are still in flight.
type stagedMark struct {
	neighbor NodeID
	marked   bool
}

// placeBits is the width of the edge-number width in NodeState.place: an
// edge number is at most 2·bitwidth.MaxSupportedIDBits = 60 bits wide.
// The slot takes the other 26 bits, so a network holds at most maxNodes
// nodes.
const placeBits = 6

// maxNodes is the largest node count a Network can hold: every storage
// slot must fit beside the edge-number width in NodeState.place.
const maxNodes = 1<<(32-placeBits) - 1

// Slot returns the node's storage slot: its index in the network's array
// of node states, 1..n. NewNetwork stores node v at slot v, and Relayout
// moves states (and the slots with them) without changing any ID. Side
// arrays that hold per-node protocol state index by slot, so that nodes
// stored together keep their side state together.
func (ns *NodeState) Slot() int { return int(ns.place >> placeBits) }

// setSlot records the node's storage slot, keeping the edge-number width.
func (ns *NodeState) setSlot(s int) { ns.place = uint32(s)<<placeBits | ns.place&(1<<placeBits-1) }

// edgeNumBits returns the layout's edge-number width.
func (ns *NodeState) edgeNumBits() uint { return uint(ns.place & (1<<placeBits - 1)) }

// EdgeNumMask masks an incident composite weight down to its edge number.
// Local scans over Edges hoist it out of the loop.
func (ns *NodeState) EdgeNumMask() uint64 { return 1<<ns.edgeNumBits() - 1 }

// EdgeNum returns the paper's edge number of he, one of the node's
// half-edges.
func (ns *NodeState) EdgeNum(he *HalfEdge) uint64 { return he.Composite & ns.EdgeNumMask() }

// Raw returns the raw weight of he, one of the node's half-edges.
func (ns *NodeState) Raw(he *HalfEdge) uint64 { return he.Composite >> ns.edgeNumBits() }

// edgePos returns the position of the half-edge toward neighbor in the
// sorted Edges slice, or -1. Hand-rolled binary search: this is the
// innermost loop of every Send and delivery.
func (ns *NodeState) edgePos(neighbor NodeID) int {
	lo, hi := 0, len(ns.Edges)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ns.Edges[mid].Neighbor < neighbor {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ns.Edges) && ns.Edges[lo].Neighbor == neighbor {
		return lo
	}
	return -1
}

// linkLive reports whether the link m travelled still exists at delivery.
// Messages sent after the latest deletion (seq above the watermark) skip
// the search: their link existed at send time and nothing has removed a
// link since. Older messages fall back to the search, so a link deleted
// and re-inserted while the message was in flight still delivers it.
func linkLive(node *NodeState, m *Message, watermark uint64) bool {
	return m.seq > watermark || node.edgePos(m.From) >= 0
}

// warmNode is one step of the delivery warm pass: a tight loop of
// independent loads touches every destination's NodeState and first
// half-edge of a delivery window, so the CPU overlaps the cache misses the
// handlers would otherwise take one at a time. Callers add the sum to a
// field, which keeps the loads live.
func warmNode(ns *NodeState) uint64 {
	if len(ns.Edges) > 0 {
		return uint64(ns.Edges[0].Neighbor)
	}
	return 0
}

// warmWindow is the number of messages the delivery loop warms ahead of
// their handlers. Warming a whole round first would be undone on a large
// round: by the time a handler ran, the lines warmed for it would have
// left L2. A window of 64 messages keeps enough independent misses in
// flight while their lines are still resident when the handlers need them.
const warmWindow = 64

// deliver runs the handlers of msgs in order on the network view v and
// recycles each message, warming (warmNode) and then delivering one window
// of warmWindow messages at a time. Delivery order is msgs order, so the
// windows are invisible to every observable. parents, non-nil only on a
// shard view, holds each message's global batch index: the lane key of
// every effect its handler emits. A message whose link vanished while it
// was in flight (linkLive against watermark) is dropped, as the model
// says. deliver returns the number of handlers that ran.
func (v *Network) deliver(msgs []*Message, parents []int32, watermark uint64) (handled uint64) {
	for lo := 0; lo < len(msgs); lo += warmWindow {
		win := msgs[lo:min(lo+warmWindow, len(msgs))]
		var warm uint64
		for _, m := range win {
			warm += warmNode(v.nodes[m.To])
		}
		v.warmSink += warm
		for i, m := range win {
			if parents != nil {
				v.lane.parent = parents[lo+i]
			}
			node := v.nodes[m.To]
			if linkLive(node, m, watermark) {
				v.handlers[m.Kind](v, node, m) // non-nil: send checks registration
				handled++
			}
			v.putMessage(m)
			win[i] = nil
		}
	}
	return handled
}

// EdgeTo returns the half-edge toward the given neighbour, or nil.
func (ns *NodeState) EdgeTo(neighbor NodeID) *HalfEdge {
	i := ns.edgePos(neighbor)
	if i < 0 {
		return nil
	}
	return &ns.Edges[i]
}

// EdgeIndex returns the position of the half-edge toward neighbor in the
// sorted Edges slice, or -1. Protocol code uses it to key per-edge bitmask
// state (e.g. election receipt bits) by edge position instead of by a
// neighbour-ID map.
func (ns *NodeState) EdgeIndex(neighbor NodeID) int { return ns.edgePos(neighbor) }

// setMark sets this endpoint's mark on the edge toward neighbor, bypassing
// the mark log (SetForest invalidates it instead). It reports whether the
// edge exists.
func (ns *NodeState) setMark(neighbor NodeID, marked bool) bool {
	he := ns.EdgeTo(neighbor)
	if he == nil {
		return false
	}
	he.Marked = marked
	return true
}

// StageMark defers marking the edge toward neighbor until the next
// barrier (ApplyStaged). The edge must exist when the change is applied;
// staging for a vanished edge is dropped at the barrier (the link was
// deleted while the instruction was in flight) and counted.
func (ns *NodeState) StageMark(neighbor NodeID) {
	ns.staged = append(ns.staged, stagedMark{neighbor: neighbor, marked: true})
}

// StageUnmark defers unmarking the edge toward neighbor.
func (ns *NodeState) StageUnmark(neighbor NodeID) {
	ns.staged = append(ns.staged, stagedMark{neighbor: neighbor, marked: false})
}

// applyStaged applies this node's deferred mark changes in order, appends
// every change that flips a mark to log when log is non-nil, and returns
// the number of changes dropped because their edge vanished while the
// instruction was in flight.
func (ns *NodeState) applyStaged(log *[]MarkFlip) (dropped int) {
	for _, s := range ns.staged {
		if he := ns.EdgeTo(s.neighbor); he != nil {
			if log != nil && he.Marked != s.marked {
				*log = append(*log, MarkFlip{At: ns.ID, To: s.neighbor, Marked: s.marked})
			}
			he.Marked = s.marked
		} else {
			dropped++
		}
	}
	ns.staged = ns.staged[:0]
	return dropped
}

// MarkedNeighbors returns the IDs of neighbours joined by marked (tree)
// edges, in ascending order.
func (ns *NodeState) MarkedNeighbors() []NodeID {
	var out []NodeID
	for i := range ns.Edges {
		if ns.Edges[i].Marked {
			out = append(out, ns.Edges[i].Neighbor)
		}
	}
	return out
}

// Degree returns the number of incident links.
func (ns *NodeState) Degree() int { return len(ns.Edges) }

// SessionState returns the automaton state stored under sid, or nil.
func (ns *NodeState) SessionState(sid SessionID) any {
	for i := range ns.sess {
		if ns.sess[i].sid == sid {
			return ns.sess[i].state
		}
	}
	return nil
}

// SetSessionState stores automaton state under sid; nil deletes it. The
// backing vector's capacity is retained, so the steady state (one
// broadcast-and-echo or election wave after another) never allocates.
func (ns *NodeState) SetSessionState(sid SessionID, st any) {
	for i := range ns.sess {
		if ns.sess[i].sid == sid {
			if st == nil {
				last := len(ns.sess) - 1
				ns.sess[i] = ns.sess[last]
				ns.sess[last] = sessEntry{}
				ns.sess = ns.sess[:last]
				return
			}
			ns.sess[i].state = st
			return
		}
	}
	if st != nil {
		ns.sess = append(ns.sess, sessEntry{sid: sid, state: st})
	}
}

// Handler processes one delivered message at the receiving node. It may
// mutate the node's local state, send messages via nw.Send, and complete
// sessions via nw.CompleteSession. The *Message is only valid for the
// duration of the call — the engine recycles it afterwards.
type Handler func(nw *Network, node *NodeState, msg *Message)

// session tracks one protocol execution and the task (if any) parked on
// its completion. Sessions live by value in the engine's slot table
// (Network.slots); id == 0 marks a free slot. A slot is recycled as soon
// as its result has been handed over — at completion when a task is
// already parked, otherwise when a later Step or Take consumes the stored
// result — so the table stays as small as the peak number of concurrent
// sessions.
type session struct {
	id        SessionID // 0 = free slot; otherwise the full packed ID
	completed bool
	unboxed   bool // result is resultU, not result (CompleteSessionU)
	resultU   uint64
	result    any
	err       error
	// twaiter is the task parked on this session, if any; completion puts
	// it back on the engine's run queue.
	twaiter *Task
	// onQuiescence, if set, lets the session complete when the network
	// goes quiescent (no messages in flight, no runnable drivers) — this
	// is how "wait until maxTime" timeouts are modelled without wall
	// clocks. It returns the result to complete with.
	onQuiescence func() (any, error)
	// openedAt is the scheduler clock at NewSession, stamped only when the
	// watchdog is armed (per-session budgets and dump ages).
	openedAt int64
}

// Network is the simulator: topology, schedulers, counters, sessions and
// drivers.
type Network struct {
	// nodes maps each ID to its state (index 1..n; index 0 nil). states
	// holds the states in storage order, indexed by slot, and back the
	// half-edge windows in the same order (see Relayout).
	nodes  []*NodeState
	states []NodeState
	back   []HalfEdge
	relay  relayScratch
	layout bitwidth.Layout
	maxRaw uint64

	sched    scheduler
	counters ledger
	handlers []Handler // indexed by KindID; nil = not registered here

	// obs is the attached trace observer; nil (the default) disables every
	// hook behind a single nil check per round. See Observer in observer.go
	// for the callback contract and why the hooks preserve determinism.
	obs Observer

	// slots is the flat session table, indexed by SessionID.Slot() and
	// validated by the full packed ID (the serial is the generation
	// stamp). freeSlots recycles slot indices; serial counts NewSession
	// calls, matching the monotonic numbering of the old map keys.
	slots     []session
	freeSlots []int32
	serial    uint64
	// quiescent lists (in creation order) the sessions created with an
	// onQuiescence callback and not yet fired. The engine's quiescence
	// sweep walks only this list instead of every session ever created.
	quiescent      []SessionID
	quiescentSpare []SessionID
	nextSeq        uint64
	// lastDeleteSeq is the delivery watermark, nextSeq as of the latest
	// DeleteLink (see linkLive). Exact because send panics on a missing
	// link and only DeleteLink removes one.
	lastDeleteSeq uint64
	// warmSink accumulates the delivery warm pass's loads (see warmNode),
	// so the compiler cannot discard them.
	warmSink uint64

	// fifoTomb preserves per-directed-link FIFO state (HalfEdge.lastSched,
	// kept on the half-edge because the async send path reads it per
	// message) across a link delete/reinsert, so a re-inserted link keeps
	// its exact FIFO constraint. Touched only on topology mutation, never
	// on the send path. Lazily built.
	fifoTomb map[uint64]int64

	runq   []wakeup
	rng    *rng.RNG
	budget int

	msgFree []*Message // recycled Message structs

	stagedDrops uint64 // staged mark changes dropped on vanished edges

	// markLog records mark flips while markLogOn (see LogMarks);
	// markLogLost is set when SetForest rewrote the marks behind it.
	markLog     []MarkFlip
	markLogOn   bool
	markLogLost bool

	// shards is the configured shard count (1 = single-threaded); see
	// shard.go for the engine and the determinism contract. asyncMode
	// records the scheduler choice so the sharded merge knows whether
	// re-scheduling a staged send needs the per-link FIFO cell.
	asyncMode bool
	shards    int
	shardEng  *shardEngine
	// lane is non-nil only on a per-shard view of the network: the engine
	// hands handlers a view whose mutating operations (sends, completions,
	// message recycling, counter charges) divert into the shard's ordered
	// lane instead of touching shared state. The root network's lane is
	// nil and all operations apply directly.
	lane *shardLane

	// tasks lists the continuation tasks spawned for the current Run, in
	// spawn order; live counts the unfinished ones. taskFree recycles
	// finished tasks across Runs. Tasks are plain heap objects — no
	// goroutine, no channels — which is what keeps a million-fragment
	// fan-out at tens of bytes per driver. See cont.go.
	tasks    []*Task
	live     int
	taskFree []*Task

	// Driver high-water marks (see DriverStats): peakTasks counts the tasks
	// ever created, peakLive the maximum concurrently-unfinished tasks.
	// Monotone across Runs so a trial reports its true peak.
	peakTasks int
	peakLive  int

	running             bool
	deadlockResolutions int

	// Watchdog state (see watchdog.go). completions counts every session
	// completion unconditionally — the one-word cost of the disabled
	// watchdog; everything else is touched only when armed. wdArmed caches
	// wd.enabled() so the Run loop's guard is a single flag test.
	wd             Watchdog
	wdArmed        bool
	ctx            context.Context
	completions    uint64
	wdSeen         uint64
	wdLastProgress int64
	wdChecks       uint64
}

// wakeup is one runnable-task entry on the engine's run queue. The queue
// is drained strictly in append order, which is what makes task
// scheduling — and with it session serials and every derived random draw
// — identical across shard counts.
type wakeup struct {
	t *Task
	w Wake
}

// Wake is the completion of a session as handed to a driver: the result
// (boxed or unboxed) plus the session error. A parked task receives it as
// the argument of its next Step; code between Runs gets it from Take.
type Wake struct {
	result  any
	u       uint64 // unboxed result lane (CompleteSessionU)
	unboxed bool
	err     error
}

// Err returns the session error carried by the wake. Continuation drivers
// must check it first in every resumed Step and finish with the error —
// that is how deadlock unwinding (and any other forced completion)
// propagates through state machines.
func (w Wake) Err() error { return w.err }

// Value returns the boxed result: an unboxed completion comes back as a
// boxed uint64.
func (w Wake) Value() (any, error) {
	if w.unboxed {
		return w.u, w.err
	}
	return w.result, w.err
}

// U returns the unboxed single-word result. A boxed completion whose
// result is not a uint64 is an error, never a silent zero: that would mask
// a boxed/unboxed lane mismatch at the call site.
func (w Wake) U() (uint64, error) {
	if w.unboxed {
		return w.u, w.err
	}
	if w.err != nil {
		return 0, w.err
	}
	if u, ok := w.result.(uint64); ok {
		return u, nil
	}
	return 0, fmt.Errorf("congest: unboxed read of session completed with boxed %T, not uint64", w.result)
}

// Option configures a Network.
type Option func(*config)

type config struct {
	seed     uint64
	async    bool
	maxDelay int64
	shards   int
	obs      Observer
	wd       Watchdog
	ctx      context.Context
}

// WithSeed sets the engine's random seed (async delays; protocols draw
// their own randomness from driver-visible RNGs).
func WithSeed(seed uint64) Option { return func(c *config) { c.seed = seed } }

// WithShards partitions the nodes into s shards whose delivery batches —
// synchronous rounds, or asynchronous same-tick groups — execute on
// parallel workers. The sharded engine is observably identical to the
// single-threaded one — delivery order, driver scheduling, session
// serials, derived random draws and every counter are byte-for-byte the
// same at any shard count — so s is purely a wall-clock knob. s <= 1
// keeps the single-threaded path.
func WithShards(s int) Option { return func(c *config) { c.shards = s } }

// WithAsync switches to the asynchronous scheduler with per-message delays
// uniform in [1, maxDelay] (FIFO per link). The paper's repair algorithms
// (Theorem 1.2) run in this mode.
func WithAsync(maxDelay int64) Option {
	return func(c *config) {
		c.async = true
		if maxDelay < 1 {
			maxDelay = 1
		}
		c.maxDelay = maxDelay
	}
}

// NewNetwork builds a network with one node per graph vertex and one link
// per graph edge. No edges are marked; use SetForest or protocol runs to
// mark. Every node's Edges is a window of one backing array, cap-limited
// (back[lo:hi:hi]) so that InsertLink's append reallocates the node's own
// slice instead of overwriting the next node's half-edges.
//
// The windows come out sorted by neighbour without a sort, in O(n + m): a
// first pass drops each edge's composite weight into the lastSched field
// of a free slot in both endpoints' windows, in graph order. A second
// pass walks the nodes v in ascending order and, for each composite in
// v's window, writes the half-edge toward v into the other endpoint's
// next sorted slot, so every window fills in ascending neighbour order.
// The second pass writes only Neighbor and Composite, so the composites
// it has not read yet survive; it zeroes v's lastSched once v is read.
func NewNetwork(g *graph.Graph, opts ...Option) *Network {
	cfg := config{seed: 1, maxDelay: 8}
	for _, o := range opts {
		o(&cfg)
	}
	if g.N > maxNodes {
		panic(fmt.Sprintf("congest: %d nodes, at most %d fit the storage slots", g.N, maxNodes))
	}
	nw := &Network{
		nodes:   make([]*NodeState, g.N+1),
		states:  make([]NodeState, g.N+1),
		layout:  g.Layout,
		maxRaw:  g.MaxRaw,
		rng:     rng.New(cfg.seed),
		budget:  g.Layout.MessageBudget,
		obs:     cfg.obs,
		wd:      cfg.wd,
		wdArmed: cfg.wd.enabled(),
		ctx:     cfg.ctx,
	}
	// lo[v] is the start of v's window; fill[v] its next free slot.
	lo := make([]int, g.N+2)
	for _, e := range g.Edges() {
		lo[e.A+1]++
		lo[e.B+1]++
	}
	for v := 1; v <= g.N+1; v++ {
		lo[v] += lo[v-1]
	}
	back := make([]HalfEdge, 2*g.M())
	nw.back = back
	fill := make([]int, g.N+1)
	copy(fill, lo)
	for _, e := range g.Edges() {
		c := int64(g.Composite(e))
		back[fill[e.A]].lastSched = c
		fill[e.A]++
		back[fill[e.B]].lastSched = c
		fill[e.B]++
	}
	copy(fill, lo)
	mask := g.Layout.MaxEdgeNum()
	for v := 1; v <= g.N; v++ {
		w := back[lo[v]:lo[v+1]:lo[v+1]]
		for i := range w {
			c := uint64(w[i].lastSched)
			a, b := g.Layout.SplitEdgeNum(c & mask)
			u := a ^ b ^ uint32(v)
			he := &back[fill[u]]
			he.Neighbor, he.Composite = NodeID(v), c
			fill[u]++
		}
		for i := range w {
			w[i].lastSched = 0
		}
		ns := &nw.states[v]
		ns.ID = NodeID(v)
		ns.place = uint32(v)<<placeBits | uint32(g.Layout.EdgeNumBits)
		if len(w) > 0 {
			ns.Edges = w
		}
		nw.nodes[v] = ns
	}
	if cfg.async {
		nw.asyncMode = true
		nw.sched = newAsyncScheduler(nw.rng.Split(), cfg.maxDelay)
	} else {
		nw.sched = newSyncScheduler()
	}
	if cfg.shards > 1 {
		nw.shards = shard.NewPartition(g.N, cfg.shards).Shards()
	}
	if nw.shards < 1 {
		nw.shards = 1
	}
	return nw
}

// makeHalf builds the local view of the link at -> to.
func (nw *Network) makeHalf(at, to NodeID, raw uint64) HalfEdge {
	return HalfEdge{Neighbor: to, Composite: nw.layout.Composite(raw, nw.layout.EdgeNum(uint32(at), uint32(to)))}
}

// addHalf inserts a half-edge into the sorted Edges slice in place: one
// binary search plus one memmove, no index rebuild. If the directed link
// was deleted earlier with FIFO state pending, that state is restored from
// the tombstone so re-inserted links keep the exact per-link FIFO
// constraint relative to messages scheduled before the deletion.
func (nw *Network) addHalf(at, to NodeID, raw uint64) {
	ns := nw.nodes[at]
	he := nw.makeHalf(at, to, raw)
	if last, ok := nw.fifoTomb[linkKey(at, to)]; ok {
		he.lastSched = last
		delete(nw.fifoTomb, linkKey(at, to))
	}
	pos := sort.Search(len(ns.Edges), func(i int) bool { return ns.Edges[i].Neighbor >= to })
	ns.Edges = append(ns.Edges, HalfEdge{})
	copy(ns.Edges[pos+1:], ns.Edges[pos:])
	ns.Edges[pos] = he
}

// removeHalf deletes a half-edge in place, preserving sort order. Pending
// FIFO state moves to the tombstone map (cold path) so a later re-insert
// behaves exactly as the old persistent per-link map did.
func (nw *Network) removeHalf(at, to NodeID) bool {
	ns := nw.nodes[at]
	i := ns.edgePos(to)
	if i < 0 {
		return false
	}
	if last := ns.Edges[i].lastSched; last != 0 {
		if nw.fifoTomb == nil {
			nw.fifoTomb = make(map[uint64]int64)
		}
		nw.fifoTomb[linkKey(at, to)] = last
	}
	ns.Edges = append(ns.Edges[:i], ns.Edges[i+1:]...)
	return true
}

// N returns the number of nodes.
func (nw *Network) N() int { return len(nw.nodes) - 1 }

// Layout returns the bit-field layout shared by all nodes.
func (nw *Network) Layout() bitwidth.Layout { return nw.layout }

// MaxRaw returns the raw-weight bound u.
func (nw *Network) MaxRaw() uint64 { return nw.maxRaw }

// Node returns the state of node v (1-based). Protocol code should only
// use this for the node a handler or driver is acting as.
func (nw *Network) Node(v NodeID) *NodeState { return nw.nodes[v] }

// RegisterHandler installs the automaton step for a message kind. Kinds
// are interned with Kind and registered once at startup by each protocol
// package.
func (nw *Network) RegisterHandler(kind KindID, h Handler) {
	if kind < 0 || int(kind) >= NumKinds() {
		panic(fmt.Sprintf("congest: RegisterHandler of uninterned kind %d", int32(kind)))
	}
	if h == nil {
		panic(fmt.Sprintf("congest: nil handler for kind %q", kind))
	}
	for int(kind) >= len(nw.handlers) {
		nw.handlers = append(nw.handlers, nil)
	}
	if nw.handlers[kind] != nil {
		panic(fmt.Sprintf("congest: duplicate handler for kind %q", kind))
	}
	nw.handlers[kind] = h
	nw.counters.ensure(len(nw.handlers))
}

// HasHandler reports whether a handler for kind is installed.
func (nw *Network) HasHandler(kind KindID) bool {
	return kind >= 0 && int(kind) < len(nw.handlers) && nw.handlers[kind] != nil
}

// getMessage pops a recycled Message or allocates a fresh one. On a shard
// view the shard's private free list is used, so workers never contend.
func (nw *Network) getMessage() *Message {
	free := &nw.msgFree
	if nw.lane != nil {
		free = &nw.lane.msgFree
	} else if len(nw.msgFree) == 0 && nw.shardEng != nil {
		nw.shardEng.refillRoot(free)
	}
	if n := len(*free); n > 0 {
		m := (*free)[n-1]
		(*free)[n-1] = nil
		*free = (*free)[:n-1]
		return m
	}
	return &Message{}
}

// putMessage returns a delivered (or dropped) Message to the free list.
func (nw *Network) putMessage(m *Message) {
	m.Payload = nil // release the reference for GC
	if nw.lane != nil {
		nw.lane.msgFree = append(nw.lane.msgFree, m)
		return
	}
	nw.msgFree = append(nw.msgFree, m)
}

// Send queues a message from one node to a neighbouring node. It enforces
// the model: the link must exist and the payload must fit the budget.
// Every send is charged to the counters.
func (nw *Network) Send(from, to NodeID, kind KindID, sid SessionID, bits int, payload any) {
	nw.sendAt(from, -1, to, kind, sid, bits, payload, 0)
}

// SendU is Send with an unboxed single-word payload: the word travels in
// Message.U, so protocol words (parities, XORs, counters) never allocate.
func (nw *Network) SendU(from, to NodeID, kind KindID, sid SessionID, bits int, u uint64) {
	nw.sendAt(from, -1, to, kind, sid, bits, nil, u)
}

// SendAt is Send for a caller that already walks the sender's Edges: ei is
// the position of the half-edge toward to. One load checks it, and a stale
// position (the topology changed since the caller read it) falls back to
// the search, so the effect, the FIFO cell and the no-such-link panic are
// exactly Send's.
func (nw *Network) SendAt(from NodeID, ei int, to NodeID, kind KindID, sid SessionID, bits int, payload any) {
	nw.sendAt(from, ei, to, kind, sid, bits, payload, 0)
}

// SendUAt is SendU by half-edge position (see SendAt).
func (nw *Network) SendUAt(from NodeID, ei int, to NodeID, kind KindID, sid SessionID, bits int, u uint64) {
	nw.sendAt(from, ei, to, kind, sid, bits, nil, u)
}

func (nw *Network) sendAt(from NodeID, ei int, to NodeID, kind KindID, sid SessionID, bits int, payload any, u uint64) {
	ns := nw.nodes[from]
	if uint(ei) >= uint(len(ns.Edges)) || ns.Edges[ei].Neighbor != to {
		if ei = ns.edgePos(to); ei < 0 {
			panic(fmt.Sprintf("congest: %d -> %d: no such link (kind %q)", from, to, kind))
		}
	}
	total := bits + FramingBits
	if total > nw.budget {
		panic(fmt.Sprintf("congest: message kind %q carries %d bits, budget is %d", kind, total, nw.budget))
	}
	if !nw.HasHandler(kind) {
		panic(fmt.Sprintf("congest: no handler registered for kind %q", kind))
	}
	if l := nw.lane; l != nil {
		// Sharded delivery in flight: stage the send in the shard's ordered
		// lane. The global sequence number is assigned at the deterministic
		// merge, in exactly the order a single-threaded round would have.
		m := nw.getMessage()
		m.From, m.To, m.Kind, m.Session = from, to, kind, sid
		m.Bits, m.Payload, m.U, m.seq = bits, payload, u, 0
		l.counters.charge(kind, total)
		l.out.Push(l.id, l.parent, laneOp{m: m})
		return
	}
	nw.nextSeq++
	m := nw.getMessage()
	m.From, m.To, m.Kind, m.Session = from, to, kind, sid
	m.Bits, m.Payload, m.U, m.seq = bits, payload, u, nw.nextSeq
	nw.counters.charge(kind, total)
	nw.sched.schedule(m, &ns.Edges[ei].lastSched)
}

// fifoCell returns the per-directed-link FIFO cell the async scheduler
// needs when a lane-staged send is re-scheduled at the merge, or nil under
// the synchronous scheduler (which ignores it). The link is guaranteed to
// exist: send validated it when staging, and topology only mutates from
// drivers, strictly between batches.
func (nw *Network) fifoCell(from, to NodeID) *int64 {
	if !nw.asyncMode {
		return nil
	}
	ns := nw.nodes[from]
	return &ns.Edges[ns.edgePos(to)].lastSched
}

// AsyncConflicts returns how many emissions landed inside an open async
// delivery window and were routed back to their reference position (see
// asyncScheduler.winInsert). Zero under the synchronous scheduler.
// Deterministic per seed, and identical at any shard count.
func (nw *Network) AsyncConflicts() uint64 {
	if s, ok := nw.sched.(*asyncScheduler); ok {
		return s.conflicts
	}
	return 0
}

// lookupSession resolves a SessionID against the slot table, or nil for a
// freed/unknown session. The returned pointer is only valid until the next
// NewSession call (the table may grow); never retain it.
func (nw *Network) lookupSession(sid SessionID) *session {
	slot := sid.Slot()
	if slot >= len(nw.slots) || nw.slots[slot].id != sid {
		return nil
	}
	return &nw.slots[slot]
}

// freeSession clears a slot and returns it to the free list.
func (nw *Network) freeSession(s *session) {
	slot := s.id.Slot()
	*s = session{}
	nw.freeSlots = append(nw.freeSlots, int32(slot))
}

// NewSession allocates a session. onQuiescence may be nil. Sessions are a
// driver-side concept: creating one from a message handler would make the
// serial order (and with it all derived randomness) depend on delivery
// interleaving, so it is rejected outright on a shard view.
func (nw *Network) NewSession(onQuiescence func() (any, error)) SessionID {
	if nw.lane != nil {
		panic("congest: NewSession from a message handler — sessions are created by drivers")
	}
	var slot int
	if n := len(nw.freeSlots); n > 0 {
		slot = int(nw.freeSlots[n-1])
		nw.freeSlots = nw.freeSlots[:n-1]
	} else {
		slot = len(nw.slots)
		if slot > sessSlotMask {
			panic(fmt.Sprintf("congest: more than %d concurrent sessions", sessSlotMask))
		}
		nw.slots = append(nw.slots, session{})
	}
	nw.serial++
	sid := SessionID(nw.serial)<<sessSlotBits | SessionID(slot)
	nw.slots[slot] = session{id: sid, onQuiescence: onQuiescence}
	if nw.wdArmed {
		// openedAt feeds the per-session budget sweep and the dump's
		// oldest-session list; stamped only when armed so the disabled
		// watchdog never touches the scheduler clock here.
		nw.slots[slot].openedAt = nw.sched.now()
	}
	if onQuiescence != nil {
		nw.quiescent = append(nw.quiescent, sid)
	}
	if nw.obs != nil {
		nw.obs.SessionOpen(nw.serial, nw.sched.now())
	}
	return sid
}

// CompleteSession finishes a session with a result; the parked task (if
// any) becomes runnable. Completing an already-complete session panics —
// that is always a protocol bug.
func (nw *Network) CompleteSession(sid SessionID, result any, err error) {
	nw.completeSession(sid, Wake{result: result, err: err})
}

// CompleteSessionU finishes a session with an unboxed single-word result
// (read with Wake.U) — the completion counterpart of SendU.
func (nw *Network) CompleteSessionU(sid SessionID, u uint64, err error) {
	nw.completeSession(sid, Wake{u: u, unboxed: true, err: err})
}

func (nw *Network) completeSession(sid SessionID, w Wake) {
	if l := nw.lane; l != nil {
		// Sharded delivery in flight: defer the completion into the lane.
		// It applies (slot mutation, waiter wakeup, double-complete checks
		// and all) at the deterministic merge, interleaved with the
		// handler's sends in emission order.
		l.out.Push(l.id, l.parent, laneOp{sid: sid, w: w, complete: true})
		return
	}
	s := nw.lookupSession(sid)
	if s == nil {
		panic(fmt.Sprintf("congest: completing unknown session %d", sid))
	}
	if s.completed {
		panic(fmt.Sprintf("congest: session %d completed twice", sid))
	}
	// The watchdog's progress signal: completions advancing means the run
	// is not stalled. One unconditional increment — the entire disabled
	// cost on this path.
	nw.completions++
	if nw.obs != nil {
		// Lane-deferred completions reached this root path via the ordered
		// merge, so the hook fires on the engine goroutine in
		// single-threaded order at any shard count.
		nw.obs.SessionDone(sid.Serial(), nw.sched.now(), w.err != nil)
	}
	if s.twaiter != nil {
		// The parked task receives the result directly through its wakeup,
		// joining the run queue in completion order; nothing will look the
		// session up again, so the slot recycles immediately.
		nw.runq = append(nw.runq, wakeup{t: s.twaiter, w: w})
		nw.freeSession(s)
		return
	}
	s.completed = true
	s.result, s.resultU, s.unboxed = w.result, w.u, w.unboxed
	s.err = w.err
	s.onQuiescence = nil
}

// Counters returns a snapshot of the cost counters.
func (nw *Network) Counters() Counters { return nw.counters.snapshot() }

// Totals returns the ledger's total messages and bits: Counters without
// the per-kind map, for callers that meter many short sections.
func (nw *Network) Totals() (messages, bits uint64) {
	return nw.counters.messages, nw.counters.bits
}

// CountersSince returns the costs accumulated since the earlier snapshot
// (taken from Counters on this network). It lets callers meter a phase or
// a single operation without resetting the global ledger.
func (nw *Network) CountersSince(earlier Counters) Counters {
	return nw.counters.snapshot().Sub(earlier)
}

// ResetCounters zeroes the cost ledger. Trial harnesses call it between
// independent measurements on a reused network; protocol code never
// should.
func (nw *Network) ResetCounters() { nw.counters.reset() }

// Now returns the scheduler clock: the round number (sync) or virtual time
// (async).
func (nw *Network) Now() int64 { return nw.sched.now() }

// Rand returns a sub-RNG for protocol use, split off the engine stream.
// Driver-side only: a handler drawing from the shared stream would tie the
// draws to delivery interleaving, so shard views reject it.
func (nw *Network) Rand() *rng.RNG {
	if nw.lane != nil {
		panic("congest: Rand from a message handler — use deterministic per-node randomness instead")
	}
	return nw.rng.Split()
}

// Lanes returns the number of execution lanes protocol state pools should
// be provisioned for: the shard count (1 when unsharded). Lane-indexed
// pools are how protocol layers keep their free lists contention-free
// under the sharded engine.
func (nw *Network) Lanes() int { return nw.shards }

// LaneID identifies the execution lane of this network value: shard
// workers see their shard index, everything driver-side sees 0. Drivers
// and shard 0 share lane 0 — they never run concurrently, so sharing its
// pools is safe.
func (nw *Network) LaneID() int {
	if nw.lane != nil {
		return nw.lane.id
	}
	return 0
}

// --- topology mutation (the "environment": uncharged) ---

// SetForest marks exactly the given edges (pairs of endpoints) on both
// sides and unmarks everything else. Setup helper for tests/benchmarks;
// models a network that already maintains a forest.
func (nw *Network) SetForest(edges [][2]NodeID) {
	if nw.markLogOn {
		nw.markLog, nw.markLogLost = nw.markLog[:0], true
	}
	for v := 1; v <= nw.N(); v++ {
		ns := nw.nodes[v]
		for i := range ns.Edges {
			ns.Edges[i].Marked = false
		}
	}
	for _, e := range edges {
		if !nw.nodes[e[0]].setMark(e[1], true) || !nw.nodes[e[1]].setMark(e[0], true) {
			panic(fmt.Sprintf("congest: SetForest: edge {%d,%d} does not exist", e[0], e[1]))
		}
	}
}

// MarkedEdges returns all properly marked edges as endpoint pairs (lower
// ID first), asserting the both-endpoint invariant.
func (nw *Network) MarkedEdges() [][2]NodeID {
	var out [][2]NodeID
	for v := 1; v <= nw.N(); v++ {
		ns := nw.nodes[v]
		for i := range ns.Edges {
			he := &ns.Edges[i]
			if he.Neighbor > ns.ID {
				other := nw.nodes[he.Neighbor].EdgeTo(ns.ID)
				if he.Marked != other.Marked {
					panic(fmt.Sprintf("congest: edge {%d,%d} improperly marked (%v vs %v)",
						ns.ID, he.Neighbor, he.Marked, other.Marked))
				}
				if he.Marked {
					out = append(out, [2]NodeID{ns.ID, he.Neighbor})
				}
			}
		}
	}
	return out
}

// ApplyStaged applies every node's deferred mark changes. Drivers call it
// right after a barrier: the change is each node's local timeout action
// and costs no messages. Changes whose edge vanished in flight are
// dropped and tallied; see StagedDrops.
func (nw *Network) ApplyStaged() {
	var log *[]MarkFlip
	if nw.markLogOn {
		log = &nw.markLog
	}
	for v := 1; v <= nw.N(); v++ {
		nw.stagedDrops += uint64(nw.nodes[v].applyStaged(log))
	}
}

// SetMark sets the mark of the existing link {a,b} at both endpoints, an
// immediate mark change made between engine runs (e.g. a repair
// controller unmarking a tree edge whose weight rose). It reports whether
// the link exists.
func (nw *Network) SetMark(a, b NodeID, marked bool) bool {
	ha, hb := nw.nodes[a].EdgeTo(b), nw.nodes[b].EdgeTo(a)
	if ha == nil || hb == nil {
		return false
	}
	if nw.markLogOn {
		if ha.Marked != marked {
			nw.markLog = append(nw.markLog, MarkFlip{At: a, To: b, Marked: marked})
		}
		if hb.Marked != marked {
			nw.markLog = append(nw.markLog, MarkFlip{At: b, To: a, Marked: marked})
		}
	}
	ha.Marked, hb.Marked = marked, marked
	return true
}

// MarkFlip is one logged mark change: node At's half of the link toward To
// became Marked. Deleting a marked link logs a flip to false.
type MarkFlip struct {
	At, To NodeID
	Marked bool
}

// LogMarks turns the mark log on: from now on every flip of a half-edge's
// mark — by ApplyStaged, SetMark, or DeleteLink of a marked link — is
// recorded until TakeMarks hands it over. It is for consumers that keep
// state derived from the marked forest across engine runs (admit's
// wave-start labels); builds never turn it on, and off it costs one branch
// per ApplyStaged node.
func (nw *Network) LogMarks() { nw.markLogOn = true }

// TakeMarks returns the flips logged since LogMarks or the previous
// TakeMarks, in order, and empties the log. complete is false when
// SetForest rewrote the marks in between (or the log is off): the flips
// then do not account for the change, and the consumer must rebuild from
// the marks themselves. The slice is reused by later logging; consume it
// before the next mark change.
func (nw *Network) TakeMarks() (flips []MarkFlip, complete bool) {
	flips, complete = nw.markLog, nw.markLogOn && !nw.markLogLost
	nw.markLog, nw.markLogLost = nw.markLog[:0], false
	return flips, complete
}

// StagedDrops returns the number of staged mark changes that were dropped
// at a barrier because their edge had been deleted while the instruction
// was in flight. A non-zero value is not an error — dynamic deletions race
// repairs by design — but harnesses surface it so silent drops are
// observable.
func (nw *Network) StagedDrops() uint64 { return nw.stagedDrops }

// DeleteLink removes the link {a,b} from both endpoints (an adversarial
// topology change; not charged). It reports whether the link existed and
// whether it was marked.
func (nw *Network) DeleteLink(a, b NodeID) (existed, wasMarked bool) {
	he := nw.nodes[a].EdgeTo(b)
	if he == nil {
		return false, false
	}
	wasMarked = he.Marked
	if wasMarked && nw.markLogOn {
		nw.markLog = append(nw.markLog, MarkFlip{At: a, To: b, Marked: false})
	}
	nw.removeHalf(a, b)
	nw.removeHalf(b, a)
	nw.lastDeleteSeq = nw.nextSeq
	return true, wasMarked
}

// InsertLink adds the link {a,b} with the given raw weight (unmarked).
func (nw *Network) InsertLink(a, b NodeID, raw uint64) error {
	if a == b {
		return fmt.Errorf("congest: self-loop at %d", a)
	}
	if int(a) >= len(nw.nodes) || int(b) >= len(nw.nodes) || a == 0 || b == 0 {
		return fmt.Errorf("congest: no such node in {%d,%d}", a, b)
	}
	if nw.nodes[a].EdgeTo(b) != nil {
		return fmt.Errorf("congest: link {%d,%d} already exists", a, b)
	}
	if raw < 1 || raw > nw.maxRaw {
		return fmt.Errorf("congest: raw weight %d outside [1,%d]", raw, nw.maxRaw)
	}
	nw.addHalf(a, b, raw)
	nw.addHalf(b, a, raw)
	return nil
}

// SetRawWeight changes the weight of link {a,b} at both endpoints.
func (nw *Network) SetRawWeight(a, b NodeID, raw uint64) error {
	if raw < 1 || raw > nw.maxRaw {
		return fmt.Errorf("congest: raw weight %d outside [1,%d]", raw, nw.maxRaw)
	}
	ha, hb := nw.nodes[a].EdgeTo(b), nw.nodes[b].EdgeTo(a)
	if ha == nil || hb == nil {
		return fmt.Errorf("congest: link {%d,%d} does not exist", a, b)
	}
	comp := nw.layout.Composite(raw, nw.nodes[a].EdgeNum(ha))
	ha.Composite, hb.Composite = comp, comp
	return nil
}
