package congest

import (
	"kkt/internal/shard"
)

// This file is the sharded executor: the engine hooks that let one
// delivery batch — a synchronous round, or an asynchronous same-tick
// group — run on parallel workers while staying observably identical to
// the single-threaded engine.
//
// How the equivalence works. The single-threaded engine delivers a batch
// in order 0..len-1; each handler's side effects (sends, session
// completions) apply immediately, so later deliveries see the
// concatenation of every handler's emissions in batch order. The sharded
// engine splits the batch by destination shard (each message's handler
// touches only the destination node, so shards never share node state),
// runs the shards concurrently, and has every side effect divert into the
// shard's ordered lane keyed by the triggering message's global batch
// index. The merge then replays the lanes in (batch index, emission
// order) — exactly the single-threaded order — assigning global sequence
// numbers, scheduling sends and applying completions on the engine
// goroutine. Counter deltas accumulate per shard and sum at the barrier;
// uint64 addition is exact and commutative, so totals match to the bit.
//
// Under the asynchronous scheduler the same argument carries over because
// a batch is one tick group: every message shares one deliverAt, so the
// clock a merged send observes — and with it the delay draw, the FIFO
// bump (the merge hands schedule the sender's half-edge cell) and any
// window-conflict routing — is exactly what the inline replay would have
// computed, in the same RNG stream order.
//
// Everything drivers do (sessions, spawns, topology mutation, staged-mark
// barriers) happens strictly between rounds on the engine goroutine and
// needs no changes. The round barrier itself is the only synchronization:
// workers own disjoint node state during a round, the engine owns
// everything between rounds.

// laneOp is one deferred side effect of a sharded handler: a staged send
// (m != nil) or a session completion.
type laneOp struct {
	m        *Message
	sid      SessionID
	w        Wake
	complete bool
}

// shardLane is one shard's execution context during a round: the ordered
// effect stream, the shard-private message free list and counter block,
// and the batch index of the message currently being handled (the parent
// key of every effect it emits).
type shardLane struct {
	id       int
	parent   int32
	counters ledger
	msgFree  []*Message
	out      *shard.Outbox[laneOp]
	// handled counts the messages this shard's handlers processed during
	// the round; folded into shardEngine.load at the barrier so observers
	// see per-shard work attribution without touching worker state.
	handled  uint64
	warmSink uint64 // the warm pass's sum (see warmNode)
	panicked bool
	panicVal any
}

// subMsg is one batch entry routed to a shard: the message plus its global
// batch index.
type subMsg struct {
	m   *Message
	idx int32
}

// shardEngine is the per-network sharded executor. The views, lanes and
// buffers persist across rounds and Runs (so free lists stay warm); only
// the worker goroutines are created per Run and torn down with it, keeping
// abandoned networks free of parked goroutines.
type shardEngine struct {
	part    shard.Partition
	views   []*Network
	lanes   []*shardLane
	out     shard.Outbox[laneOp]
	workers *shard.Workers
	// roundFn is the hoisted worker closure: one allocation per engine,
	// not one per round.
	roundFn func(s int)
	sub     [][]subMsg
	// owner is the destination shard per batch index this round; uint16
	// covers the partition's 1024-shard cap.
	owner []uint16
	// load is the cumulative handled-message count per shard, folded from
	// the lanes at each barrier alongside the counter blocks.
	load []uint64
	// watermark is the root's lastDeleteSeq, captured before each round's
	// workers start. The views' own copies date from Run start, and storm
	// drivers delete links mid-Run.
	watermark uint64
}

// ensureShardEngine builds (or refreshes) the sharded executor at Run
// start. Views are shallow copies of the root network taken after all
// handlers are registered; they share every immutable structure and differ
// only in their lane pointer, which diverts the mutating operations.
func (nw *Network) ensureShardEngine() *shardEngine {
	se := nw.shardEng
	if se == nil {
		se = &shardEngine{
			part:  shard.NewPartition(nw.N(), nw.shards),
			views: make([]*Network, nw.shards),
			lanes: make([]*shardLane, nw.shards),
			sub:   make([][]subMsg, nw.shards),
			load:  make([]uint64, nw.shards),
		}
		for s := 0; s < nw.shards; s++ {
			se.lanes[s] = &shardLane{id: s, out: &se.out}
			se.views[s] = &Network{}
		}
		se.roundFn = func(s int) { se.runShard(s) }
		nw.shardEng = se
	}
	for s, v := range se.views {
		l := se.lanes[s]
		*v = *nw // refresh: handlers registered since the last Run
		v.lane = l
		l.counters.ensure(len(nw.handlers))
	}
	se.workers = shard.NewWorkers(nw.shards)
	return se
}

// deliverSharded delivers one batch (a synchronous round or an async tick
// group) on the shard workers and merges the deferred effects
// deterministically.
func (nw *Network) deliverSharded(se *shardEngine, batch []*Message) {
	// Split by destination shard, remembering each batch index's owner —
	// the merge cannot consult the messages themselves, since workers
	// recycle (and later sends reuse) them mid-round.
	se.owner = se.owner[:0]
	for i, m := range batch {
		s := se.part.Of(int(m.To))
		se.owner = append(se.owner, uint16(s))
		se.sub[s] = append(se.sub[s], subMsg{m: m, idx: int32(i)})
	}
	se.out.Reset(len(se.lanes))
	se.watermark = nw.lastDeleteSeq
	se.workers.Round(se.roundFn)
	for i := range batch {
		batch[i] = nil // the scheduler recycles the batch slice
	}
	// A handler panic must surface exactly as in the single-threaded run:
	// the panic of the lowest batch index wins (each lane stops at its
	// first, and lanes process ascending indices, so the minimum over
	// lanes is the globally first one).
	var panicVal any
	panicAt := int32(-1)
	for _, l := range se.lanes {
		if l.panicked && (panicAt < 0 || l.parent < panicAt) {
			panicAt, panicVal = l.parent, l.panicVal
		}
		l.panicked, l.panicVal = false, nil
	}
	if panicAt >= 0 {
		panic(panicVal)
	}
	// Merge: replay effects in single-threaded order, then fold the
	// shard counter blocks into the root ledger.
	se.out.Merge(len(batch), func(parent int32) int { return int(se.owner[parent]) }, func(op laneOp) {
		if op.complete {
			nw.completeSession(op.sid, op.w)
			return
		}
		nw.nextSeq++
		op.m.seq = nw.nextSeq
		nw.sched.schedule(op.m, nw.fifoCell(op.m.From, op.m.To))
	})
	for i, l := range se.lanes {
		nw.counters.merge(&l.counters)
		l.counters.reset()
		se.load[i] += l.handled
		l.handled = 0
	}
	// Message structs flow one way by default: driver sends draw from the
	// root free list, deliveries recycle into lane lists. Top the root
	// list back up at the barrier so session-starting drivers stay
	// allocation-free instead of slowly draining into the lanes.
	const rootFreeTarget = 256
	for _, l := range se.lanes {
		for len(l.msgFree) > 0 && len(nw.msgFree) < rootFreeTarget {
			n := len(l.msgFree) - 1
			nw.msgFree = append(nw.msgFree, l.msgFree[n])
			l.msgFree[n] = nil
			l.msgFree = l.msgFree[:n]
		}
		if len(nw.msgFree) >= rootFreeTarget {
			break
		}
	}
}

// runShard processes one shard's slice of the round on its worker: run
// each handler against the shard view, recycle the message into the
// shard's free list, and trap the first panic for deterministic rethrow.
func (se *shardEngine) runShard(s int) {
	v := se.views[s]
	l := v.lane
	sub := se.sub[s]
	defer func() {
		se.sub[s] = sub[:0]
		if r := recover(); r != nil {
			l.panicked, l.panicVal = true, r
		}
	}()
	var warm uint64
	for _, sm := range sub {
		warm += warmNode(v.nodes[sm.m.To])
	}
	l.warmSink += warm
	for _, sm := range sub {
		m := sm.m
		l.parent = sm.idx
		h := v.handlers[m.Kind] // non-nil: Send checks registration
		node := v.nodes[m.To]
		if linkLive(node, m, se.watermark) {
			h(v, node, m)
			l.handled++
		}
		// else: the link vanished while the message was in flight.
		v.putMessage(m)
	}
}

// closeShardEngine parks the executor at Run end: worker goroutines exit,
// everything else (views, lanes, warm free lists) stays for the next Run.
func (nw *Network) closeShardEngine(se *shardEngine) {
	se.workers.Close()
	se.workers = nil
}
