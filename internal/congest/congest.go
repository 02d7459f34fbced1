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
// on a network returns serial n. Serials are what deterministic derived
// randomness (e.g. tree.Protocol.NodeRand) should hash, since they do not
// depend on slot recycling order.
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
// node knows under KT1 — the neighbour's ID, the weights, and its own mark.
type HalfEdge struct {
	Neighbor  NodeID
	Raw       uint64 // raw weight in [1,u]
	Composite uint64 // unique composite weight (raw . edgeNum)
	EdgeNum   uint64 // paper's edge number (IDs concatenated, smallest first)
	Marked    bool   // does this endpoint consider the edge a tree edge?

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
	// Edges lists incident links sorted by neighbour ID. The sorted slice
	// is also the neighbour index: lookups binary-search it, so there is
	// no side map to rebuild on topology changes.
	Edges []HalfEdge

	// sess holds per-protocol automaton state keyed by session ID: a tiny
	// linear-scanned vector instead of a map, because a node participates
	// in at most a handful of sessions at once (its fragment's
	// broadcast-and-echo plus a global election). The full packed ID —
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

// warmNode is one step of the delivery warm pass: before a batch's
// handlers run, a tight loop of independent loads touches every
// destination's NodeState and first half-edge, so the CPU overlaps the
// cache misses the handlers would otherwise take one at a time. Callers
// add the sum to a field, which keeps the loads live.
func warmNode(ns *NodeState) uint64 {
	if len(ns.Edges) > 0 {
		return uint64(ns.Edges[0].Neighbor)
	}
	return 0
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

// SetMark sets this endpoint's mark on the edge toward neighbor. It
// reports whether the edge exists.
func (ns *NodeState) SetMark(neighbor NodeID, marked bool) bool {
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

// ApplyStaged applies this node's deferred mark changes in order and
// returns the number of changes dropped because their edge vanished while
// the instruction was in flight.
func (ns *NodeState) ApplyStaged() (dropped int) {
	for _, s := range ns.staged {
		if he := ns.EdgeTo(s.neighbor); he != nil {
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

// session tracks one protocol execution and the driver (if any) waiting on
// its completion. Sessions live by value in the engine's slot table
// (Network.slots); id == 0 marks a free slot. A slot is recycled as soon
// as its result has been handed to a driver — at completion when a waiter
// is already parked, otherwise when a later Await consumes the stored
// result — so the table stays as small as the peak number of concurrent
// sessions.
type session struct {
	id        SessionID // 0 = free slot; otherwise the full packed ID
	completed bool
	unboxed   bool // result is resultU, not result (CompleteSessionU)
	resultU   uint64
	result    any
	err       error
	waiter    *Proc
	// twaiter is the continuation-task counterpart of waiter: at most one
	// of the two is set. A parked task is resumed by the engine's run
	// queue exactly where a parked goroutine driver would have been.
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
	nodes  []*NodeState // index 1..n; index 0 nil
	states []NodeState  // backing array for nodes, one allocation
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
	// warmSink accumulates the batch warm pass's loads (see warmNode), so
	// the compiler cannot discard them.
	warmSink uint64

	// fifoTomb preserves per-directed-link FIFO state (HalfEdge.lastSched)
	// across a link delete/reinsert, so the fold of the old lastOn map
	// into half-edge state keeps its exact semantics. Touched only on
	// topology mutation, never on the send path. Lazily built.
	fifoTomb map[uint64]int64

	runq   []wakeup
	rng    *rng.RNG
	budget int

	msgFree []*Message // recycled Message structs

	stagedDrops uint64 // staged mark changes dropped on vanished edges

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

	// procFree recycles parked driver goroutines (with their channels)
	// across spawns within one Run; allProcs lists every driver goroutine
	// created since the pool was last drained, live counts the unfinished
	// drivers of both models. See proc.go.
	procFree []*Proc
	allProcs []*Proc
	live     int

	// taskFree recycles finished continuation tasks across spawns within
	// one Run; allTasks lists every live-or-parked task for deadlock
	// diagnostics. Tasks are plain heap objects — no goroutine, no
	// channels — which is what keeps a million-fragment fan-out at tens of
	// bytes per driver instead of a parked stack. See cont.go.
	taskFree []*Task
	allTasks []*Task

	// Driver high-water marks (see DriverStats): peakProcs tracks driver
	// goroutines ever created, peakTasks continuation tasks ever created,
	// peakLive the maximum concurrently-unfinished drivers of both models.
	// Monotone across Runs so a trial reports its true peak.
	peakProcs int
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

// wakeup is one runnable-driver entry on the engine's run queue: exactly
// one of p (goroutine driver) or t (continuation task) is set. The queue
// is drained strictly in append order, which is what makes driver
// scheduling — and with it session serials and every derived random draw —
// identical across shard counts and across the two driver models.
type wakeup struct {
	p *Proc
	t *Task
	w Wake
}

// Wake is the completion of an awaited session as delivered to a driver:
// the result (boxed or unboxed) plus the session error. Goroutine drivers
// consume it through Await/AwaitU; continuation drivers receive it as the
// argument of their next Step.
type Wake struct {
	result  any
	u       uint64 // unboxed result lane (CompleteSessionU)
	unboxed bool
	err     error
}

// Err returns the session error carried by the wake. Continuation drivers
// must check it first in every resumed Step and finish with the error —
// that is how deadlock unwinding (and any other forced completion)
// propagates through state machines, mirroring how a goroutine driver's
// Await returns the error up its call stack.
func (w Wake) Err() error { return w.err }

// Value returns the boxed result, with exactly Proc.Await's semantics: an
// unboxed completion comes back as a boxed uint64.
func (w Wake) Value() (any, error) {
	if w.unboxed {
		return w.u, w.err
	}
	return w.result, w.err
}

// U returns the unboxed single-word result, with exactly Proc.AwaitU's
// semantics: a boxed completion whose result is not a uint64 is an error,
// never a silent zero.
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

// halfEdgesByNeighbor sorts a node's incident links by neighbour ID.
type halfEdgesByNeighbor []HalfEdge

func (h halfEdgesByNeighbor) Len() int           { return len(h) }
func (h halfEdgesByNeighbor) Less(i, j int) bool { return h[i].Neighbor < h[j].Neighbor }
func (h halfEdgesByNeighbor) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

// NewNetwork builds a network with one node per graph vertex and one link
// per graph edge. No edges are marked; use SetForest or protocol runs to
// mark. Construction is bulk: per-node edge slices are sized up front,
// filled, and sorted once — O(deg log deg) per node instead of the O(deg²)
// of repeated sorted inserts.
func NewNetwork(g *graph.Graph, opts ...Option) *Network {
	cfg := config{seed: 1, maxDelay: 8}
	for _, o := range opts {
		o(&cfg)
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
	deg := make([]int, g.N+1)
	for _, e := range g.Edges() {
		deg[e.A]++
		deg[e.B]++
	}
	for v := 1; v <= g.N; v++ {
		ns := &nw.states[v]
		ns.ID = NodeID(v)
		if deg[v] > 0 {
			ns.Edges = make([]HalfEdge, 0, deg[v])
		}
		nw.nodes[v] = ns
	}
	for _, e := range g.Edges() {
		nw.appendHalf(NodeID(e.A), NodeID(e.B), e.Raw)
		nw.appendHalf(NodeID(e.B), NodeID(e.A), e.Raw)
	}
	for v := 1; v <= g.N; v++ {
		sort.Sort(halfEdgesByNeighbor(nw.nodes[v].Edges))
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
	num := nw.layout.EdgeNum(uint32(at), uint32(to))
	return HalfEdge{
		Neighbor:  to,
		Raw:       raw,
		Composite: nw.layout.Composite(raw, num),
		EdgeNum:   num,
	}
}

// appendHalf adds a half-edge without maintaining sort order; used only by
// bulk construction, which sorts once at the end.
func (nw *Network) appendHalf(at, to NodeID, raw uint64) {
	ns := nw.nodes[at]
	ns.Edges = append(ns.Edges, nw.makeHalf(at, to, raw))
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
	nw.send(from, to, kind, sid, bits, payload, 0)
}

// SendU is Send with an unboxed single-word payload: the word travels in
// Message.U, so protocol words (parities, XORs, counters) never allocate.
func (nw *Network) SendU(from, to NodeID, kind KindID, sid SessionID, bits int, u uint64) {
	nw.send(from, to, kind, sid, bits, nil, u)
}

func (nw *Network) send(from, to NodeID, kind KindID, sid SessionID, bits int, payload any, u uint64) {
	ns := nw.nodes[from]
	ei := ns.edgePos(to)
	if ei < 0 {
		panic(fmt.Sprintf("congest: %d -> %d: no such link (kind %q)", from, to, kind))
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

// CompleteSession finishes a session with a result; the waiting driver (if
// any) becomes runnable. Completing an already-complete session panics —
// that is always a protocol bug.
func (nw *Network) CompleteSession(sid SessionID, result any, err error) {
	nw.completeSession(sid, Wake{result: result, err: err})
}

// CompleteSessionU finishes a session with an unboxed single-word result
// (consumed via Proc.AwaitU) — the completion counterpart of SendU.
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
	if s.waiter != nil {
		// The parked driver receives the result directly through its
		// wakeup; nothing will look the session up again, so the slot
		// recycles immediately.
		nw.runq = append(nw.runq, wakeup{p: s.waiter, w: w})
		nw.freeSession(s)
		return
	}
	if s.twaiter != nil {
		// Same for a parked continuation task: it joins the run queue in
		// completion order, so task scheduling interleaves with goroutine
		// drivers exactly as the completion stream dictates.
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
	for v := 1; v <= nw.N(); v++ {
		ns := nw.nodes[v]
		for i := range ns.Edges {
			ns.Edges[i].Marked = false
		}
	}
	for _, e := range edges {
		if !nw.nodes[e[0]].SetMark(e[1], true) || !nw.nodes[e[1]].SetMark(e[0], true) {
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
	for v := 1; v <= nw.N(); v++ {
		nw.stagedDrops += uint64(nw.nodes[v].ApplyStaged())
	}
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
	ha.Raw, hb.Raw = raw, raw
	comp := nw.layout.Composite(raw, ha.EdgeNum)
	ha.Composite, hb.Composite = comp, comp
	return nil
}
