package congest

import (
	"fmt"
	"testing"

	"kkt/internal/graph"
	"kkt/internal/rng"
)

// traceEntry records one delivery as observed by a handler.
type traceEntry struct {
	From, To NodeID
	Payload  int
	At       int64
}

// runAsyncTraffic drives a deterministic pseudo-random traffic pattern
// over a ring under the async scheduler and returns the full delivery
// trace. Each handler re-sends to a seeded random neighbour until the
// hop budget is exhausted, so traffic covers many links with interleaved
// sessions.
func runAsyncTraffic(t *testing.T, seed uint64, maxDelay int64, hops int) []traceEntry {
	t.Helper()
	g := graph.Ring(12, 1, graph.UnitWeights())
	nw := NewNetwork(g, WithAsync(maxDelay), WithSeed(seed))
	var trace []traceEntry
	kind := Kind("sched.traffic")
	r := rng.New(seed ^ 0xabcdef)
	left := hops
	nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
		trace = append(trace, traceEntry{From: msg.From, To: node.ID, Payload: msg.Payload.(int), At: nw.Now()})
		for f := 0; f < 1+int(r.Uint64n(2)); f++ {
			if left <= 0 {
				return
			}
			left--
			nb := node.Edges[r.Intn(node.Degree())].Neighbor
			nw.Send(node.ID, nb, kind, msg.Session, 8, left)
		}
	})
	sid := nw.NewSession(nil)
	for i := 0; i < 4; i++ {
		left--
		nw.Send(NodeID(i+1), NodeID(i+2), kind, sid, 8, left)
	}
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	nw.CompleteSession(sid, nil, nil)
	return trace
}

// TestAsyncTraceDeterministicAcrossRuns locks in full trace determinism:
// for a fixed seed, repeated runs deliver exactly the same messages in
// exactly the same order at exactly the same virtual times, regardless of
// internal queue implementation.
func TestAsyncTraceDeterministicAcrossRuns(t *testing.T) {
	for _, maxDelay := range []int64{1, 4, 16, 100} {
		t.Run(fmt.Sprintf("maxDelay=%d", maxDelay), func(t *testing.T) {
			a := runAsyncTraffic(t, 42, maxDelay, 400)
			b := runAsyncTraffic(t, 42, maxDelay, 400)
			if len(a) == 0 {
				t.Fatal("empty trace")
			}
			if len(a) != len(b) {
				t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("trace diverges at %d: %+v vs %+v", i, a[i], b[i])
				}
			}
		})
	}
}

// TestAsyncTraceChangesWithSeed is the determinism test's counterpart: a
// different seed must (for this traffic) produce a different schedule, so
// the determinism test cannot pass vacuously.
func TestAsyncTraceChangesWithSeed(t *testing.T) {
	a := runAsyncTraffic(t, 42, 8, 400)
	b := runAsyncTraffic(t, 43, 8, 400)
	same := len(a) == len(b)
	if same {
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

// TestAsyncPerLinkFIFO checks the FIFO invariant on every directed link:
// messages sent on one link are delivered in send order, under delay
// regimes that exercise both the calendar-queue ring (small delays) and
// the overflow heap (deep per-link queues, far-future FIFO bumps).
func TestAsyncPerLinkFIFO(t *testing.T) {
	for _, tc := range []struct {
		name     string
		maxDelay int64
		burst    int
	}{
		{"ring-path", 4, 8},
		{"overflow-path", 4, 4096}, // burst >> window span forces the heap
		{"long-delays", 3000, 64},  // delays beyond the capped ring span
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graph.Ring(6, 1, graph.UnitWeights())
			nw := NewNetwork(g, WithAsync(tc.maxDelay), WithSeed(7))
			kind := Kind("sched.fifo")
			sent := make(map[uint64]int)     // directed link -> messages sent
			received := make(map[uint64]int) // directed link -> next expected
			nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
				key := linkKey(msg.From, node.ID)
				if msg.Payload.(int) != received[key] {
					t.Fatalf("link %d->%d: got message %d, expected %d (FIFO violated)",
						msg.From, node.ID, msg.Payload.(int), received[key])
				}
				received[key]++
			})
			r := rng.New(99)
			// Interleave bursts on every directed ring link.
			for round := 0; round < tc.burst; round++ {
				for v := 1; v <= nw.N(); v++ {
					from := NodeID(v)
					node := nw.Node(from)
					to := node.Edges[r.Intn(node.Degree())].Neighbor
					key := linkKey(from, to)
					nw.Send(from, to, kind, 0, 8, sent[key])
					sent[key]++
				}
			}
			if err := nw.Run(); err != nil {
				t.Fatal(err)
			}
			for key, n := range sent {
				if received[key] != n {
					t.Errorf("link %d: received %d of %d messages", key, received[key], n)
				}
			}
		})
	}
}

// TestAsyncCalendarMatchesReferenceHeap replays an identical schedule
// through the calendar queue and a plain reference heap and asserts the
// pop order agrees — the calendar queue is an optimisation, never a
// semantic change.
//
// The calendar side stores per-link FIFO state the way the Network does —
// in per-half-edge cells that are dropped to a tombstone on link deletion
// and restored on re-insert — while the reference keeps the historical
// persistent lastOn map that never forgets a link. Random delete/reinsert
// events are interleaved with the traffic, so the test also pins down
// that the half-edge + tombstone scheme preserves the old map's exact
// delete/reinsert semantics.
func TestAsyncCalendarMatchesReferenceHeap(t *testing.T) {
	mk := func() *asyncScheduler { return newAsyncScheduler(rng.New(5), 6) }
	cal := mk()

	// Calendar-side FIFO cells, managed like HalfEdge.lastSched: live
	// cells for existing links, a tombstone map for deleted ones.
	cells := make(map[uint64]*int64)
	tombs := make(map[uint64]int64)
	cell := func(key uint64) *int64 {
		c, ok := cells[key]
		if !ok {
			c = new(int64)
			if last, found := tombs[key]; found {
				*c = last
				delete(tombs, key)
			}
			cells[key] = c
		}
		return c
	}
	dropLink := func(key uint64) { // Network.removeHalf's bookkeeping
		if c, ok := cells[key]; ok {
			if *c != 0 {
				tombs[key] = *c
			}
			delete(cells, key)
		}
	}

	// Reference: same delay stream, same FIFO bumping, but a flat sorted
	// pop using the messageHeap ordering and a persistent per-link map.
	type refSched struct {
		*asyncScheduler
		lastOn map[uint64]int64
		q      messageHeap
	}
	ref := &refSched{asyncScheduler: mk(), lastOn: make(map[uint64]int64)}

	var calOut, refOut []uint64
	seq := uint64(0)
	send := func(from, to NodeID) {
		seq++
		key := linkKey(from, to)
		cal.schedule(&Message{From: from, To: to, seq: seq}, cell(key))
		// mirror into the reference using the same arrival computation
		m := &Message{From: from, To: to, seq: seq}
		delay := 1 + int64(ref.r.Uint64n(uint64(ref.maxDelay)))
		at := ref.clock + delay
		if last, ok := ref.lastOn[key]; ok && at <= last {
			at = last + 1
		}
		ref.lastOn[key] = at
		m.deliverAt = at
		ref.q = append(ref.q, m)
	}
	popRef := func() *Message {
		best := 0
		for i := range ref.q {
			if ref.q.Less(i, best) {
				best = i
			}
		}
		m := ref.q[best]
		ref.q = append(ref.q[:best], ref.q[best+1:]...)
		if m.deliverAt > ref.clock {
			ref.clock = m.deliverAt
		}
		return m
	}
	// nextBatch hands out whole tick groups; buffer one and pop singly so
	// sends interleave with deliveries mid-group — exactly the engine's
	// shape (handlers emit while the group's tick is the clock), and the
	// regime that exercises window-conflict routing against the reference.
	var calBuf []*Message
	popCal := func() *Message {
		if len(calBuf) == 0 {
			calBuf = append(calBuf, cal.nextBatch()...)
		}
		m := calBuf[0]
		calBuf = calBuf[1:]
		return m
	}

	r := rng.New(777)
	pendingCal, pendingRef := 0, 0
	for step := 0; step < 5000; step++ {
		if r.Uint64n(16) == 0 {
			// Delete a random directed link's FIFO cell; the next send on
			// it re-creates the cell from the tombstone, exactly like a
			// link delete followed by a re-insert. The reference map is
			// untouched — that IS the old semantics.
			from := NodeID(1 + r.Intn(4))
			dropLink(linkKey(from, from%4+1))
		}
		if pendingCal == 0 || r.Uint64n(3) > 0 {
			from := NodeID(1 + r.Intn(4))
			to := from%4 + 1
			send(from, to)
			pendingCal++
			pendingRef++
			continue
		}
		calOut = append(calOut, popCal().seq)
		refOut = append(refOut, popRef().seq)
		pendingCal--
		pendingRef--
	}
	for pendingCal > 0 {
		calOut = append(calOut, popCal().seq)
		refOut = append(refOut, popRef().seq)
		pendingCal--
	}
	for i := range calOut {
		if calOut[i] != refOut[i] {
			t.Fatalf("pop order diverges at %d: calendar seq %d, reference seq %d", i, calOut[i], refOut[i])
		}
	}
	if !cal.empty() {
		t.Error("calendar queue not empty after drain")
	}
}

// TestAsyncWindowOverflowProperty cross-checks the windowed calendar
// against a flat (deliverAt, seq) reference under overflow-heavy regimes:
// long send bursts on a handful of directed links FIFO-bump deliveries far
// past the ring span, so most events route through the overflow heap and
// full drains force quiet-stretch clock jumps right before windowed
// extraction. Sends interleave with mid-group pops, so emissions landing
// inside the open window exercise the conflict-routing path against the
// reference order. Sweeps window sizes down to one tick.
func TestAsyncWindowOverflowProperty(t *testing.T) {
	defer func(w int) { asyncWindowTicks = w }(asyncWindowTicks)
	var totalConflicts, totalOverflowed uint64
	for _, tc := range []struct {
		seed     uint64
		maxDelay int64
		ticks    int
	}{
		{1, 1, 2},
		{2, 3, 4},
		{3, 6, 16},
		{4, 50, 3},
		{5, 6, 1},
	} {
		t.Run(fmt.Sprintf("seed=%d,maxDelay=%d,winTicks=%d", tc.seed, tc.maxDelay, tc.ticks), func(t *testing.T) {
			asyncWindowTicks = tc.ticks
			cal := newAsyncScheduler(rng.New(tc.seed), tc.maxDelay)
			refR := rng.New(tc.seed) // mirrors cal's delay stream draw for draw

			cells := make(map[uint64]*int64)
			cell := func(key uint64) *int64 {
				c, ok := cells[key]
				if !ok {
					c = new(int64)
					cells[key] = c
				}
				return c
			}
			lastOn := make(map[uint64]int64)
			var q messageHeap
			var refClock int64

			var calOut, refOut []uint64
			seq := uint64(0)
			send := func(from, to NodeID) {
				seq++
				key := linkKey(from, to)
				cal.schedule(&Message{From: from, To: to, seq: seq}, cell(key))
				m := &Message{From: from, To: to, seq: seq}
				at := refClock + 1 + int64(refR.Uint64n(uint64(tc.maxDelay)))
				if at <= lastOn[key] {
					at = lastOn[key] + 1
				}
				lastOn[key] = at
				m.deliverAt = at
				q = append(q, m)
			}
			popRef := func() *Message {
				best := 0
				for i := range q {
					if q.Less(i, best) {
						best = i
					}
				}
				m := q[best]
				q = append(q[:best], q[best+1:]...)
				if m.deliverAt > refClock {
					refClock = m.deliverAt
				}
				return m
			}
			var calBuf []*Message
			popBoth := func() {
				if len(calBuf) == 0 {
					calBuf = append(calBuf, cal.nextBatch()...)
				}
				calOut = append(calOut, calBuf[0].seq)
				calBuf = calBuf[1:]
				refOut = append(refOut, popRef().seq)
			}

			r := rng.New(tc.seed ^ 0xfeed)
			pending := 0
			for step := 0; step < 4000; step++ {
				if len(cal.overflow) > 0 {
					totalOverflowed++
				}
				switch {
				case r.Uint64n(40) == 0:
					// Burst: hammer one directed link so FIFO bumping runs
					// the tail far past the ring span, deep into the heap.
					from := NodeID(1 + r.Intn(3))
					for i := 0; i < 200; i++ {
						send(from, 9)
						pending++
					}
				case r.Uint64n(20) == 0:
					// Full drain: the next sends start from a quiet queue, so
					// far-future burst tails force quiet-stretch jumps.
					for pending > 0 {
						popBoth()
						pending--
					}
				case pending == 0 || r.Uint64n(3) > 0:
					from := NodeID(1 + r.Intn(4))
					send(from, from%4+1)
					pending++
				default:
					popBoth()
					pending--
				}
			}
			for pending > 0 {
				popBoth()
				pending--
			}
			for i := range calOut {
				if calOut[i] != refOut[i] {
					t.Fatalf("pop order diverges at %d: calendar seq %d, reference seq %d (window ticks %d)",
						i, calOut[i], refOut[i], tc.ticks)
				}
			}
			if !cal.empty() {
				t.Error("calendar queue not empty after drain")
			}
			totalConflicts += cal.conflicts
		})
	}
	if totalConflicts == 0 {
		t.Error("no send ever landed inside an open window; conflict routing untested")
	}
	if totalOverflowed == 0 {
		t.Error("overflow heap never engaged; the regime is not overflow-heavy")
	}
}
