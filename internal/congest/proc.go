package congest

import (
	"errors"
	"fmt"
)

// ErrDeadlock is returned by Run when drivers are blocked, no messages are
// in flight and no quiescence-completing session can fire — a protocol bug.
var ErrDeadlock = errors.New("congest: deadlock: drivers blocked with no messages in flight")

// Proc is the context of one goroutine driver: a sequential program that
// parks on Await, such as the global Borůvka phase controller. Its methods
// may only be called from within the driver's own function; the engine
// guarantees that while they run, nothing else does.
//
// Procs are the phase controllers and the repair-wave controller; a
// controller's fan-out runs as continuation tasks (see GoStepTagged), not
// as further Procs, and every search and repair is a StepDriver.
type Proc struct {
	nw   *Network
	name string

	fn func(*Proc) error

	resume chan Wake
	yield  chan struct{}

	doneSession SessionID
	finished    bool
	err         error
	panicVal    any       // recovered driver panic, re-raised by the engine
	awaiting    SessionID // 0 when not blocked; diagnostic only
}

// Spawn registers a new driver. The function starts running at the next
// scheduling opportunity inside Run. It must not be called while another
// driver is active (fan out with (*Proc).GoStepTagged instead).
func (nw *Network) Spawn(name string, fn func(*Proc) error) *Proc {
	if nw.running {
		panic("congest: Spawn called during Run; use (*Proc).GoStepTagged from a driver")
	}
	p := &Proc{
		nw:          nw,
		name:        name,
		fn:          fn,
		resume:      make(chan Wake),
		yield:       make(chan struct{}),
		doneSession: nw.NewSession(nil),
	}
	nw.allProcs = append(nw.allProcs, p)
	if len(nw.allProcs) > nw.peakProcs {
		nw.peakProcs = len(nw.allProcs)
	}
	nw.noteLive()
	nw.runq = append(nw.runq, wakeup{p: p})
	go p.run()
	return p
}

// run is the driver goroutine: it parks until the engine activates it,
// runs the function and yields for the last time. A nil fn at activation
// is the Run teardown's poison for a driver that never got scheduled (no
// yield follows it, the sender does not wait).
func (p *Proc) run() {
	<-p.resume // activation by the engine
	fn := p.fn
	if fn == nil {
		return
	}
	err := p.call(fn)
	// Still the active driver here: safe to touch the network.
	p.finished = true
	p.err = err
	p.nw.live--
	if p.panicVal == nil {
		p.nw.CompleteSession(p.doneSession, nil, err)
	}
	p.yield <- struct{}{}
}

// call runs the driver function, trapping a panic so the engine goroutine
// can re-raise it out of Run — the same surface a panicking continuation
// driver (stepped directly on the engine goroutine) has. On panic the done
// session is left open; Run is unwinding, nobody will await it.
func (p *Proc) call(fn func(*Proc) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			p.panicVal = r
		}
	}()
	return fn(p)
}

// noteLive counts one freshly spawned driver and updates the live
// high-water mark.
func (nw *Network) noteLive() {
	nw.live++
	if nw.live > nw.peakLive {
		nw.peakLive = nw.live
	}
}

// ErrRunAborted is the error drivers parked mid-await observe when a Run
// unwinds abnormally (a driver or handler panic re-raised by the engine):
// their pending Awaits return it so the goroutines can exit with the Run.
var ErrRunAborted = errors.New("congest: run aborted")

// drainProcs tears down every driver goroutine at Run end so an abandoned
// network never pins stacks. Drivers parked mid-await — the state a panic
// exit leaves them in — are woken with ErrRunAborted until they finish (an
// unwinding driver may park again, e.g. WaitTasks moving to its next
// child, so iterate to a fixed point); spawned-but-never-started drivers
// are poisoned out of their goroutines. The run queue is discarded:
// wakeups enqueued during the unwind have no engine loop left to deliver
// them.
func (nw *Network) drainProcs() {
	for pass := 0; pass < maxDeadlockResolutions; pass++ {
		woke := false
		for _, p := range nw.allProcs {
			if p.finished || p.awaiting == 0 {
				continue
			}
			// Unbind the session's waiter first: the driver re-parks or
			// finishes without consuming it, and a stale pointer would
			// corrupt a later Run on the same network.
			if s := nw.lookupSession(p.awaiting); s != nil && s.waiter == p {
				s.waiter = nil
			}
			p.resume <- Wake{err: ErrRunAborted}
			<-p.yield
			woke = true
		}
		if !woke {
			break
		}
	}
	for _, p := range nw.allProcs {
		if !p.finished && p.fn != nil && p.awaiting == 0 {
			// Spawned but never scheduled (the panic hit before its runq
			// entry drained): parked before its first activation. Poison
			// without running the function.
			p.fn = nil
			p.resume <- Wake{}
		}
	}
	for i := range nw.runq {
		nw.runq[i] = wakeup{}
	}
	nw.runq = nw.runq[:0]
	clear(nw.allProcs)
	nw.allProcs = nw.allProcs[:0]
	nw.live = 0
}

// Name returns the driver's diagnostic name.
func (p *Proc) Name() string { return p.name }

// Network returns the network the driver runs on.
func (p *Proc) Network() *Network { return p.nw }

// Await blocks the driver until the session completes and returns its
// result. If the session is already complete it returns immediately.
// Consuming a completed session recycles its slot: a session's result can
// be awaited once.
func (p *Proc) Await(sid SessionID) (any, error) {
	w, err := p.await(sid)
	if err != nil {
		return nil, err
	}
	return w.Value()
}

// AwaitU is Await for sessions completed with CompleteSessionU: the
// single-word result stays unboxed end to end. Awaiting a boxed session
// whose result is not a uint64 is an error — a silent zero would mask a
// boxed/unboxed lane mismatch at the call site.
func (p *Proc) AwaitU(sid SessionID) (uint64, error) {
	w, err := p.await(sid)
	if err != nil {
		return 0, err
	}
	return w.U()
}

func (p *Proc) await(sid SessionID) (Wake, error) {
	s := p.nw.lookupSession(sid)
	if s == nil {
		return Wake{}, fmt.Errorf("congest: await on unknown session %d", sid)
	}
	if s.completed {
		w := Wake{result: s.result, u: s.resultU, unboxed: s.unboxed, err: s.err}
		p.nw.freeSession(s)
		return w, nil
	}
	if s.waiter != nil || s.twaiter != nil {
		return Wake{}, fmt.Errorf("congest: session %d already has a waiter", sid)
	}
	s.waiter = p
	p.awaiting = sid
	p.yield <- struct{}{} // hand control back to the engine
	w := <-p.resume       // engine wakes us with the completion
	p.awaiting = 0
	return w, nil
}

// AwaitQuiescence blocks the driver until no messages are in flight and no
// other driver can make progress. It models the paper's synchronised
// "while time < i*maxTime(n) wait" phase barrier: in a synchronous network
// every node knows a worst-case bound on a phase's duration, so waiting it
// out costs no messages. The simulator waits for actual quiescence instead
// of a round count, which is the same barrier without the slack.
func (p *Proc) AwaitQuiescence() {
	sid := p.nw.NewSession(func() (any, error) { return nil, nil })
	_, _ = p.Await(sid)
}

// Err returns the driver's final error; valid after Run returns.
func (p *Proc) Err() error { return p.err }

// Run executes the network until all drivers have finished and no messages
// remain. It returns the first driver error, or ErrDeadlock if progress
// stops while drivers are still blocked.
func (nw *Network) Run() error {
	if nw.running {
		panic("congest: Run is not reentrant")
	}
	nw.running = true
	defer func() { nw.running = false }()
	if nw.wdArmed {
		// Re-baseline the stall detector: the clock persists across Runs on
		// one network (repair storms Run per wave), and a fresh Run must
		// not inherit the idle gap since the last one.
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
	// Drain the drivers on every exit path: parked goroutines and pooled
	// tasks must not outlive the Run that created them. LIFO defer order
	// makes drainProcs run first — unwinding drivers may still release
	// tasks.
	defer nw.drainTaskPool()
	defer nw.drainProcs()

	var deadlockErr error
	for {
		// 1. Run every runnable driver to its next block/finish. Drain by
		// index — drivers may append new wakeups while running — then
		// truncate in place, so the queue's backing array recycles instead
		// of losing capacity off the front. Goroutine drivers resume via
		// their channels; continuation tasks are stepped right here on the
		// engine goroutine, in the same queue order.
		for i := 0; i < len(nw.runq); i++ {
			wu := nw.runq[i]
			nw.runq[i] = wakeup{}
			if wu.t != nil {
				nw.stepTask(wu.t, wu.w)
				continue
			}
			wu.p.resume <- wu.w
			<-wu.p.yield
			if pv := wu.p.panicVal; pv != nil {
				// Driver panics surface from Run on the engine goroutine,
				// for goroutine drivers and tasks alike.
				panic(pv)
			}
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
				// normal error path, so the deferred pool drains unwind the
				// parked drivers exactly as a deadlock return would.
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
			for _, p := range nw.allProcs {
				if p.err != nil {
					return p.err
				}
			}
			for _, tk := range nw.allTasks {
				if tk.err != nil {
					return tk.err
				}
			}
			return nil
		}
		// Deadlock: wake every blocked driver with an error so its
		// goroutine can unwind, remember the diagnosis, and keep
		// scheduling until everything exits.
		nw.deadlockResolutions++
		if nw.deadlockResolutions > maxDeadlockResolutions {
			return fmt.Errorf("%w: drivers refused to unwind", ErrDeadlock)
		}
		var blocked []string
		for _, p := range nw.allProcs {
			if p.finished || p.awaiting == 0 {
				continue
			}
			blocked = append(blocked, fmt.Sprintf("%s (awaiting session %d)", p.Name(), p.awaiting))
			nw.CompleteSession(p.awaiting, nil, ErrDeadlock)
		}
		for _, tk := range nw.allTasks {
			if tk.finished || tk.awaiting == 0 {
				continue
			}
			blocked = append(blocked, fmt.Sprintf("%s (awaiting session %d)", tk.Name(), tk.awaiting))
			nw.CompleteSession(tk.awaiting, nil, ErrDeadlock)
		}
		if deadlockErr == nil {
			deadlockErr = fmt.Errorf("%w: %v", ErrDeadlock, blocked)
		}
		if len(blocked) == 0 {
			// Unwakeable drivers (blocked outside Await) — impossible by
			// construction, but do not spin.
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
