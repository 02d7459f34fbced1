package admit

import (
	"cmp"
	"math"
	"slices"

	"kkt/internal/congest"
)

// labels are the wave-start component labels of the marked forest, kept
// across the waves of one network. Claims only compare labels, so any
// labelling with the same partition gives the same admissions; the
// labels need not be canonical.
//
// A wave's marks change in few places (its admission-time deletions and
// unmarks, then the staged marks ApplyStaged commits), and the network's
// mark log (congest.Network.LogMarks) reports exactly those. So update
// nets the logged flips out per edge and patches the labels: a removed
// edge splits its component, and the alternating walk (see duel) finds the
// smaller half in O(its size) and gives it a fresh label; an added edge
// joining two components relabels the smaller one. It falls back to
// labelling every node on a network it has not seen, when the log is
// incomplete (SetForest rewrote the marks), or when two removed edges share
// a label — which the claims discipline rules out, since a claimed
// component runs one repair and each repair removes at most one of its
// edges.
//
// Their duel is also the scan's side oracle: Claim.Root runs it across a
// just-cut edge and reads the labels for every other repair, so this is
// the package's one alternating walk.
type labels struct {
	nw   *congest.Network
	of   []int32 // node -> label; 0 = unlabelled (only inside relabel)
	size []int32 // label -> member count; label 0 is unused
	d    duel

	// scratch, reused across waves
	flips  []pairFlip
	rem    []pairFlip
	add    []pairFlip
	addDeg []int32 // per node: added edges incident to it, during removal walks
	queue  []congest.NodeID

	// full and incremental count the two kinds of update.
	full, incremental int
}

// pairFlip is one netted mark change of the link {lo, hi}: was is the mark
// it had at the previous update.
type pairFlip struct {
	lo, hi congest.NodeID
	was    bool
}

// update brings the labels to the components of nw's current marked
// forest.
func (l *labels) update(nw *congest.Network) {
	flips, complete := nw.TakeMarks()
	if nw != l.nw || !complete {
		l.relabel(nw)
		return
	}
	if len(flips) == 0 {
		return
	}
	if !l.patch(nw, flips) {
		l.relabel(nw)
		return
	}
	l.incremental++
}

// relabel labels every component from scratch by breadth-first search over
// the marked edges, and turns the network's mark log on for later patches.
func (l *labels) relabel(nw *congest.Network) {
	nw.LogMarks()
	nw.TakeMarks()
	l.nw = nw
	l.full++
	n := nw.N()
	if cap(l.of) < n+1 {
		l.of = make([]int32, n+1)
		l.addDeg = make([]int32, n+1)
	}
	l.of = l.of[:n+1]
	clear(l.of)
	l.addDeg = l.addDeg[:n+1]
	l.size = append(l.size[:0], 0)
	for v := congest.NodeID(1); int(v) <= n; v++ {
		if l.of[v] == 0 {
			l.size = append(l.size, 0)
			l.flood(nw, v, 0, int32(len(l.size)-1))
		}
	}
}

// flood gives label to every node reachable from start over marked edges
// through nodes labelled from, start included, and adds them to label's
// size.
func (l *labels) flood(nw *congest.Network, start congest.NodeID, from, label int32) {
	l.of[start] = label
	q := append(l.queue[:0], start)
	for i := 0; i < len(q); i++ {
		ns := nw.Node(q[i])
		for j := range ns.Edges {
			he := &ns.Edges[j]
			if he.Marked && l.of[he.Neighbor] == from {
				l.of[he.Neighbor] = label
				q = append(q, he.Neighbor)
			}
		}
	}
	l.size[label] += int32(len(q))
	l.queue = q[:0]
}

// patch applies one update's logged flips; it returns false when the
// labels must be rebuilt instead.
func (l *labels) patch(nw *congest.Network, flips []congest.MarkFlip) bool {
	// Net out per link: the first flip says what the mark was, the network
	// says what it is (read at the lower endpoint, as relabel's walks do).
	l.flips = l.flips[:0]
	for _, f := range flips {
		lo, hi := min(f.At, f.To), max(f.At, f.To)
		l.flips = append(l.flips, pairFlip{lo: lo, hi: hi, was: !f.Marked})
	}
	slices.SortStableFunc(l.flips, func(x, y pairFlip) int {
		return cmp.Or(cmp.Compare(x.lo, y.lo), cmp.Compare(x.hi, y.hi))
	})
	l.rem, l.add = l.rem[:0], l.add[:0]
	for i, f := range l.flips {
		if i > 0 && l.flips[i-1].lo == f.lo && l.flips[i-1].hi == f.hi {
			continue
		}
		he := nw.Node(f.lo).EdgeTo(f.hi)
		switch now := he != nil && he.Marked; {
		case f.was && !now:
			l.rem = append(l.rem, f)
		case !f.was && now:
			l.add = append(l.add, f)
		}
	}

	// Removals first, over the forest without this update's additions:
	// that forest is the previous one minus the removed edges, so each
	// removal splits exactly one labelled component in two.
	for i, r := range l.rem {
		lbl := l.of[r.lo]
		if l.of[r.hi] != lbl {
			return false
		}
		for _, o := range l.rem[:i] {
			if l.of[o.lo] == lbl {
				return false
			}
		}
	}
	for _, a := range l.add {
		l.addDeg[a.lo]++
		l.addDeg[a.hi]++
	}
	ok := true
	for _, r := range l.rem {
		bSmaller, met := l.d.run(nw, r.lo, r.hi, l.added)
		if met {
			ok = false
			break
		}
		side := l.d.a.q
		if bSmaller {
			side = l.d.b.q
		}
		old, fresh := l.of[r.lo], int32(len(l.size))
		l.size = append(l.size, int32(len(side)))
		l.size[old] -= int32(len(side))
		for _, v := range side {
			l.of[v] = fresh
		}
	}
	for _, a := range l.add {
		l.addDeg[a.lo]--
		l.addDeg[a.hi]--
	}
	if !ok {
		return false
	}

	// Then additions: each one joining two components relabels the smaller.
	for _, a := range l.add {
		la, lb := l.of[a.lo], l.of[a.hi]
		if la == lb {
			continue
		}
		small, big := a.lo, lb
		if l.size[la] > l.size[lb] {
			small, big = a.hi, la
		}
		from := l.of[small]
		l.size[from] = 0
		l.flood(nw, small, from, big)
	}
	return true
}

// added reports whether {v,to} is one of the current update's added edges.
func (l *labels) added(v, to congest.NodeID) bool {
	if l.addDeg[v] == 0 {
		return false
	}
	lo, hi := min(v, to), max(v, to)
	for _, a := range l.add {
		if a.lo == lo && a.hi == hi {
			return true
		}
	}
	return false
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

// run walks from a and b, crossing no marked edge {v,to} for which avoid
// (when non-nil) holds. It reports bSmaller = |side b| < |side a|, and
// met when the walks reached a common node (a and b share a component;
// bSmaller is then false). When it returns without meeting, the smaller
// side's walk (d.b if bSmaller, d.a otherwise) is done: its queue holds
// the whole side.
func (d *duel) run(nw *congest.Network, a, b congest.NodeID, avoid func(v, to congest.NodeID) bool) (bSmaller, met bool) {
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
		if !da && d.expand(nw, &d.a, d.b.tag, avoid) {
			return false, true
		}
		if !db && d.expand(nw, &d.b, d.a.tag, avoid) {
			return false, true
		}
	}
}

// expand visits the marked neighbours of w's next queued node. It reports
// whether it reached a node tagged other.
func (d *duel) expand(nw *congest.Network, w *walk, other uint32, avoid func(v, to congest.NodeID) bool) (met bool) {
	v := w.q[w.head]
	w.head++
	ns := nw.Node(v)
	for i := range ns.Edges {
		he := &ns.Edges[i]
		if !he.Marked {
			continue
		}
		to := he.Neighbor
		if avoid != nil && avoid(v, to) {
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
