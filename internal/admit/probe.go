package admit

import (
	"math"

	"kkt/internal/congest"
)

// SideProber roots a repair at admission time: it orders the two
// endpoints of a faulted edge so the one whose side of the *live* marked
// forest is smaller comes first. The repair's broadcasts and searches
// cover the root's tree, so rooting on the smaller side makes a deletion
// that severs a few nodes from a 100k-node tree cost the few nodes. No
// earlier guess can stand in for this probe: every repair re-marks a
// replacement edge, so the forest at admission differs from any forest
// the events were compiled against. Repairer.Launch calls it after the
// admission-time topology mutation (DeleteLink / unmark / InsertLink), so
// a plain component walk from each endpoint measures exactly the tree the
// repair's broadcasts will cover — the deleted or unmarked edge is no
// longer part of the forest, and a just-inserted edge is not yet marked.
//
// The walk is centralized controller work, like the wave-start labels: it
// sends no messages and costs no rounds. It is deterministic at any shard
// count because NodeState.Edges is sorted by neighbour ID.
//
// The scratch is reused across calls; a prober is not safe for concurrent
// use (the queue runs admission scans single-threaded).
type SideProber struct {
	d duel
}

// NewSideProber returns an empty prober; scratch grows on first use.
func NewSideProber() *SideProber { return &SideProber{} }

// Smaller returns the endpoints ordered so the first one's marked-forest
// component is no larger than the second's: it returns (b, a) iff
// |comp b| < |comp a|, and keeps the order on a tie or when a and b share
// a component. The two components are walked alternately, so a probe
// costs O(smaller side) however big the other one is.
func (p *SideProber) Smaller(nw *congest.Network, a, b congest.NodeID) (congest.NodeID, congest.NodeID) {
	if bSmaller, _ := p.d.run(nw, a, b); bSmaller {
		return b, a
	}
	return a, b
}

// duel walks the marked forest breadth-first from two nodes alternately,
// one node expansion per side per round, and stops as soon as the sizes
// compare: the trick of Even and Shiloach (An On-Line Edge-Deletion
// Problem, JACM 1981) that makes a cut's smaller side cost O(its size)
// however big the other side is. Each walk tags the nodes it reaches with
// its own stamp, so the stamps need no clearing between runs.
type duel struct {
	stamp []uint32
	tag   uint32 // last stamp handed out
	a, b  walk
	// avoid, when set, names marked edges the walks must not cross.
	avoid func(v, to congest.NodeID) bool
}

// walk is one side of a duel.
type walk struct {
	q    []congest.NodeID
	head int
	tag  uint32
}

// done reports whether the walk is exhausted; its count len(q) is then
// the side's size.
func (w *walk) done() bool { return w.head == len(w.q) }

// run walks from a and b. It reports bSmaller = |side b| < |side a|, and
// met when the walks reached a common node (a and b share a component;
// bSmaller is then false). When it returns without meeting, the smaller
// side's walk (d.b if bSmaller, d.a otherwise) is done: its queue holds
// the whole side.
func (d *duel) run(nw *congest.Network, a, b congest.NodeID) (bSmaller, met bool) {
	if n := nw.N() + 1; len(d.stamp) < n {
		d.stamp, d.tag = make([]uint32, n), 0
	}
	if d.tag > math.MaxUint32-2 {
		clear(d.stamp)
		d.tag = 0
	}
	d.a = walk{q: append(d.a.q[:0], a), tag: d.tag + 1}
	d.b = walk{q: append(d.b.q[:0], b), tag: d.tag + 2}
	d.tag += 2
	if a == b {
		return false, true
	}
	d.stamp[a], d.stamp[b] = d.a.tag, d.b.tag
	for {
		da, db := d.a.done(), d.b.done()
		switch {
		case da && db:
			return len(d.b.q) < len(d.a.q), false
		case da && len(d.b.q) > len(d.a.q):
			return false, false
		case db && len(d.a.q) > len(d.b.q):
			return true, false
		}
		if !da && d.expand(nw, &d.a, d.b.tag) {
			return false, true
		}
		if !db && d.expand(nw, &d.b, d.a.tag) {
			return false, true
		}
	}
}

// expand visits the marked neighbours of w's next queued node. It reports
// whether it reached a node tagged other.
func (d *duel) expand(nw *congest.Network, w *walk, other uint32) (met bool) {
	v := w.q[w.head]
	w.head++
	ns := nw.Node(v)
	for i := range ns.Edges {
		he := &ns.Edges[i]
		if !he.Marked {
			continue
		}
		to := he.Neighbor
		if d.avoid != nil && d.avoid(v, to) {
			continue
		}
		switch d.stamp[to] {
		case w.tag:
			continue
		case other:
			return true
		}
		d.stamp[to] = w.tag
		w.q = append(w.q, to)
	}
	return false
}
