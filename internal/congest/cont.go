package congest

import (
	"errors"
	"fmt"
)

// This file is the engine's one driver model. A driver is a program
// written as an explicit state machine (StepDriver) wrapped in a pooled
// Task: tens of bytes of heap, stepped directly on the engine goroutine
// with no goroutine, no channel and no parked stack — so a Borůvka phase
// can fan out one driver per fragment, a million at 1M nodes.
//
// What sequences the drivers (a Borůvka phase loop, a repair-wave
// controller) is ordinary code on the caller's goroutine: it spawns tasks
// or opens sessions, calls Run as its barrier, reads results with Take and
// applies staged marks. Run returns exactly at quiescence, which is the
// simulator's model of the paper's "while time < i·maxTime(n) wait".
//
// Spawns and session completions append to one run queue, which the
// engine drains in order, so seeded reports are byte-identical across
// shard counts.

// ErrDeadlock is returned by Run when tasks are parked, no messages are in
// flight and no quiescence-completing session can fire — a protocol bug.
var ErrDeadlock = errors.New("congest: deadlock: drivers blocked with no messages in flight")

// StepDriver is the state-machine body of a continuation driver. The
// engine calls Step once when the task starts (with a zero Wake) and once
// more each time the awaited session completes (with that completion).
//
// Step advances the machine as far as it can without blocking and then
// either returns the next session to await (done == false) or finishes
// (done == true, with the driver's terminal error). A resumed Step must
// check w.Err() first and finish with that error — forced completions
// (deadlock unwinding) propagate through machines this way.
//
// Step runs on the engine goroutine in driver context: it may freely call
// NewSession, Send, CompleteSession, topology mutation. It must not block.
type StepDriver interface {
	Step(t *Task, w Wake) (next SessionID, done bool, err error)
}

// Task is one continuation driver: a pooled handle binding a StepDriver to
// the engine. Tasks recycle through a free list that survives across Runs,
// so a warm Borůvka phase spawns its whole fan-out without allocating.
type Task struct {
	nw *Network
	d  StepDriver

	// Tagged diagnostic name "<prefix>-p<a>-f<b>", formatted only on
	// demand: the per-fragment spawn path never builds strings.
	prefix     string
	tagA, tagB uint64

	awaiting SessionID // 0 when not parked; diagnostic only
	finished bool
	err      error
}

// Name returns the task's diagnostic name, formatted on demand.
func (t *Task) Name() string {
	return fmt.Sprintf("%s-p%d-f%d", t.prefix, t.tagA, t.tagB)
}

// Network returns the network the task runs on.
func (t *Task) Network() *Network { return t.nw }

// SpawnStep registers a continuation driver named "<prefix>-p<a>-f<b>"
// (formatted lazily). It may only be called between Runs; the task starts
// when the next Run begins, in spawn order, and Run returns its error.
func (nw *Network) SpawnStep(prefix string, a, b uint64, d StepDriver) {
	if nw.running {
		panic("congest: SpawnStep called during Run")
	}
	var t *Task
	if n := len(nw.taskFree); n > 0 {
		t = nw.taskFree[n-1]
		nw.taskFree[n-1] = nil
		nw.taskFree = nw.taskFree[:n-1]
	} else {
		t = &Task{nw: nw}
		nw.peakTasks++
	}
	t.prefix, t.tagA, t.tagB = prefix, a, b
	t.d = d
	t.finished, t.err, t.awaiting = false, nil, 0
	nw.tasks = append(nw.tasks, t)
	nw.live++
	if nw.live > nw.peakLive {
		nw.peakLive = nw.live
	}
	nw.runq = append(nw.runq, wakeup{t: t})
}

// Take returns the completion of a session that finished during an
// earlier Run and frees its slot: a session's result can be taken once.
// Taking an unknown or still-open session yields a Wake carrying an error.
func (nw *Network) Take(sid SessionID) Wake {
	s := nw.lookupSession(sid)
	if s == nil {
		return Wake{err: fmt.Errorf("congest: take of unknown session %d", sid)}
	}
	if !s.completed {
		return Wake{err: fmt.Errorf("congest: take of open session %d", sid)}
	}
	return nw.consume(s)
}

// consume hands over a completed session's result and frees its slot.
func (nw *Network) consume(s *session) Wake {
	w := Wake{result: s.result, u: s.resultU, unboxed: s.unboxed, err: s.err}
	nw.freeSession(s)
	return w
}

// stepTask advances a task on the engine goroutine until it parks on an
// incomplete session or finishes. Awaiting an already-completed session
// consumes it and continues stepping inline.
func (nw *Network) stepTask(t *Task, w Wake) {
	for {
		next, done, err := t.d.Step(t, w)
		if done {
			nw.finishTask(t, err)
			return
		}
		s := nw.lookupSession(next)
		if s == nil {
			nw.finishTask(t, fmt.Errorf("congest: %s awaits unknown session %d", t.Name(), next))
			return
		}
		if s.completed {
			w = nw.consume(s)
			continue
		}
		if s.twaiter != nil {
			nw.finishTask(t, fmt.Errorf("congest: session %d already has a waiter", next))
			return
		}
		s.twaiter = t
		t.awaiting = next
		return
	}
}

// finishTask records a task's terminal error. The task stays on the Run's
// list until the Run ends, when it returns to the pool.
func (nw *Network) finishTask(t *Task, err error) {
	t.finished, t.err = true, err
	t.awaiting = 0
	t.d = nil
	nw.live--
}

// endRun returns the Run's tasks to the pool in spawn order, on every exit
// path. A task still parked mid-await (the state a panic or watchdog exit
// leaves it in) is unbound from its session first, or the stale waiter
// pointer would corrupt a later Run on the same network; the machines the
// tasks wrapped belong to their protocol packages. Run-queue entries left
// by an abnormal exit have no engine loop to deliver them and are dropped.
func (nw *Network) endRun() {
	for i, t := range nw.tasks {
		if t.awaiting != 0 {
			if s := nw.lookupSession(t.awaiting); s != nil && s.twaiter == t {
				s.twaiter = nil
			}
		}
		t.d, t.awaiting = nil, 0
		nw.taskFree = append(nw.taskFree, t)
		nw.tasks[i] = nil
	}
	nw.tasks = nw.tasks[:0]
	clear(nw.runq)
	nw.runq = nw.runq[:0]
	nw.live = 0
}

// Run executes the network until every spawned task has finished and no
// messages remain, firing quiescence-completing sessions on the way. It
// returns the first error among the Run's tasks in spawn order, or
// ErrDeadlock if progress stops while tasks are still parked.
func (nw *Network) Run() error {
	if nw.running {
		panic("congest: Run is not reentrant")
	}
	nw.running = true
	defer func() { nw.running = false }()
	if nw.wdArmed {
		// Re-baseline the stall detector: the clock persists across Runs on
		// one network (builds Run per phase barrier, storms per wave), and
		// a fresh Run must not inherit the idle gap since the last one.
		nw.wdSeen = nw.completions
		nw.wdLastProgress = nw.sched.now()
	}

	// The sharded executor engages for any multi-shard network — sync
	// rounds and async tick groups batch the same way; its worker
	// goroutines live exactly as long as this Run.
	var se *shardEngine
	if nw.shards > 1 {
		se = nw.ensureShardEngine()
		defer nw.closeShardEngine(se)
	}
	defer nw.endRun()

	var deadlockErr error
	for {
		// 1. Step every runnable task to its next park or finish. Drain by
		// index — steps may append new wakeups — then truncate in place, so
		// the queue's backing array recycles instead of losing capacity off
		// the front. A panicking Step surfaces out of Run right here.
		for i := 0; i < len(nw.runq); i++ {
			wu := nw.runq[i]
			nw.runq[i] = wakeup{}
			nw.stepTask(wu.t, wu.w)
		}
		nw.runq = nw.runq[:0]
		// 2. Deliver the next batch of messages. Batch slices are owned by
		// the scheduler and recycled; delivered messages go back to the
		// free list, so steady-state delivery allocates nothing.
		if batch := nw.sched.nextBatch(); batch != nil {
			// Near-empty rounds (election-token convergence, probe tails)
			// don't amortize the worker barrier's two channel ops per
			// shard; deliver them inline. The inline path IS the
			// single-threaded reference order, so the choice is invisible
			// to the determinism contract.
			if se != nil && len(batch) >= shardMinBatch {
				nw.deliverSharded(se, batch)
			} else {
				nw.deliver(batch, nil, nw.lastDeleteSeq)
			}
			if nw.obs != nil {
				// The batch is fully applied (sharded rounds: lanes merged
				// and counter blocks folded), so the observer sees the exact
				// single-threaded ledger values.
				var load []uint64
				if se != nil {
					load = se.load
				}
				nw.observeRound(load)
			}
			if nw.wdArmed || nw.ctx != nil {
				// Watchdog/cancellation check, once per delivery batch: a
				// trip returns the structured *WatchdogError through the
				// normal error path.
				if werr := nw.watchdogCheck(); werr != nil {
					return werr
				}
			}
			continue
		}
		// 3. Quiescent: fire any quiescence-completing sessions (in
		// creation order) — the simulator's notion of "after maxTime".
		// Only pending-callback sessions are on the list; the buffers
		// ping-pong so callbacks may create new quiescence sessions
		// (appended to the fresh list) while the old one is swept.
		fired := false
		pending := nw.quiescent
		nw.quiescent = nw.quiescentSpare[:0]
		for _, sid := range pending {
			s := nw.lookupSession(sid)
			if s == nil || s.completed || s.onQuiescence == nil {
				continue // completed (and possibly recycled) another way
			}
			f := s.onQuiescence
			s.onQuiescence = nil
			// f may grow the slot table; use only sid from here on.
			res, err := f()
			nw.CompleteSession(sid, res, err)
			fired = true
		}
		nw.quiescentSpare = pending[:0]
		if fired {
			continue
		}
		// 4. Done or deadlocked?
		if nw.live == 0 {
			if deadlockErr != nil {
				return deadlockErr
			}
			for _, t := range nw.tasks {
				if t.err != nil {
					return t.err
				}
			}
			return nil
		}
		// Deadlock: wake every parked task with an error so its machine
		// unwinds, remember the diagnosis, and keep scheduling until every
		// task has finished.
		nw.deadlockResolutions++
		if nw.deadlockResolutions > maxDeadlockResolutions {
			return fmt.Errorf("%w: drivers refused to unwind", ErrDeadlock)
		}
		var blocked []string
		for _, t := range nw.tasks {
			if t.finished || t.awaiting == 0 {
				continue
			}
			blocked = append(blocked, fmt.Sprintf("%s (awaiting session %d)", t.Name(), t.awaiting))
			nw.CompleteSession(t.awaiting, nil, ErrDeadlock)
		}
		if deadlockErr == nil {
			deadlockErr = fmt.Errorf("%w: %v", ErrDeadlock, blocked)
		}
		if len(blocked) == 0 {
			// A live task is either queued or parked, so this cannot
			// happen — but do not spin.
			return deadlockErr
		}
	}
}

// maxDeadlockResolutions bounds the unwind loop after a deadlock diagnosis.
const maxDeadlockResolutions = 1 << 16

// shardMinBatch is the smallest delivery batch (synchronous round or async
// tick group) worth dispatching to the shard workers. Below it the barrier
// overhead (two channel operations per worker plus the ordered merge)
// exceeds the handler work, so the batch is delivered inline on the engine
// goroutine — which is the reference order the sharded merge reproduces
// anyway, so the threshold cannot affect any observable. Sized so a batch
// must carry at least a few dozen messages per expected worker before
// fan-out pays. A var only so tests can force the sharded path for tiny
// batches.
var shardMinBatch = 128

// DriverStats reports the engine's driver footprint: the fan-out lives in
// PeakTasks (plain heap objects), never in a parked stack per fragment.
// The peaks are monotone across Runs on the same network.
type DriverStats struct {
	// PeakTasks is the most continuation tasks ever created (the pool's
	// size: finished tasks are reused, never freed).
	PeakTasks int
	// PeakLive is the most concurrently-unfinished tasks.
	PeakLive int
	// OpenSessions is the number of session slots currently allocated:
	// sessions opened and not yet consumed (by a parked task or Take).
	OpenSessions int
	// ParkedMessages is the number of Message structs on the free lists,
	// the root's and every shard lane's: what the engine keeps for reuse.
	ParkedMessages int
}

// DriverStats returns the driver footprint.
func (nw *Network) DriverStats() DriverStats {
	ds := DriverStats{
		PeakTasks:    nw.peakTasks,
		PeakLive:     nw.peakLive,
		OpenSessions: len(nw.slots) - len(nw.freeSlots),
	}
	ds.ParkedMessages = len(nw.msgFree)
	if se := nw.shardEng; se != nil {
		for _, l := range se.lanes {
			ds.ParkedMessages += len(l.msgFree)
		}
	}
	return ds
}
