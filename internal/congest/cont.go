package congest

import (
	"fmt"
)

// This file is the continuation-style driver runtime, the engine's one
// model for per-fragment fan-out.
//
// A goroutine driver (Proc) is a sequential function parked on a channel
// at every await — convenient to write, but a parked goroutine costs a
// stack. At one driver per fragment per Borůvka phase that would be the
// memory wall at scale: ~1M parked stacks for the first phase of a
// 1M-node build. A continuation driver is the program written as an
// explicit state machine (StepDriver) wrapped in a pooled Task: tens of
// bytes of heap instead of kilobytes of stack, stepped directly on the
// engine goroutine with no channel handoff. Procs remain the phase
// controllers that spawn and join these fan-outs.
//
// Scheduling is shared with goroutine drivers: spawns and session
// completions append to the one run queue, which the engine drains in
// order, so seeded reports are byte-identical across shard counts.

// StepDriver is the state-machine body of a continuation driver. The
// engine calls Step once when the task starts (with a zero Wake) and once
// more each time the awaited session completes (with that completion).
//
// Step advances the machine as far as it can without blocking and then
// either returns the next session to await (done == false) or finishes
// (done == true, with the driver's terminal error). A resumed Step must
// check w.Err() first and finish with that error — forced completions
// (deadlock unwinding) propagate through machines this way, exactly as a
// goroutine driver's Await error unwinds its call stack.
//
// Step runs on the engine goroutine in driver context: it may freely call
// NewSession, Send, CompleteSession, topology mutation — everything a
// goroutine driver may do between awaits. It must not block.
type StepDriver interface {
	Step(t *Task, w Wake) (next SessionID, done bool, err error)
}

// Task is one continuation driver: a pooled handle binding a StepDriver to
// the engine. Tasks recycle through a per-Run free list, so a warm
// Borůvka phase spawns its whole fan-out without allocating.
type Task struct {
	nw *Network
	d  StepDriver

	// Tagged diagnostic name "<prefix>-p<a>-f<b>", formatted only on
	// demand: the per-fragment spawn path never builds strings.
	prefix     string
	tagA, tagB uint64

	doneSession SessionID
	awaiting    SessionID // 0 when not parked; diagnostic only
	finished    bool
	pooled      bool
	err         error
}

// Name returns the task's diagnostic name, formatted on demand.
func (t *Task) Name() string {
	return fmt.Sprintf("%s-p%d-f%d", t.prefix, t.tagA, t.tagB)
}

// Network returns the network the task runs on.
func (t *Task) Network() *Network { return t.nw }

// Err returns the task's terminal error; valid once the task finished.
func (t *Task) Err() error { return t.err }

// getTask pops a pooled task or allocates a fresh one.
func (nw *Network) getTask() *Task {
	if n := len(nw.taskFree); n > 0 {
		t := nw.taskFree[n-1]
		nw.taskFree[n-1] = nil
		nw.taskFree = nw.taskFree[:n-1]
		t.pooled = false
		return t
	}
	t := &Task{nw: nw}
	nw.allTasks = append(nw.allTasks, t)
	if len(nw.allTasks) > nw.peakTasks {
		nw.peakTasks = len(nw.allTasks)
	}
	return t
}

// spawnTask registers a continuation driver. As with Spawn, the done
// session is allocated here, at spawn time, so session serials follow
// spawn order.
func (nw *Network) spawnTask(prefix string, a, b uint64, d StepDriver) *Task {
	t := nw.getTask()
	t.prefix, t.tagA, t.tagB = prefix, a, b
	t.d = d
	t.finished, t.err, t.awaiting = false, nil, 0
	t.doneSession = nw.NewSession(nil)
	nw.noteLive()
	nw.runq = append(nw.runq, wakeup{t: t})
	return t
}

// SpawnStep registers a continuation driver before Run, the StepDriver
// counterpart of Spawn. Fan-outs from within a running driver use
// (*Proc).GoStepTagged instead.
func (nw *Network) SpawnStep(name string, d StepDriver) *Task {
	if nw.running {
		panic("congest: SpawnStep called during Run; use (*Proc).GoStepTagged from a driver")
	}
	return nw.spawnTask(name, 0, 0, d)
}

// GoStepTagged spawns a continuation child driver named
// "<prefix>-p<a>-f<b>" (formatted lazily). The child starts at the next
// scheduling opportunity, in run-queue order.
func (p *Proc) GoStepTagged(prefix string, a, b uint64, d StepDriver) *Task {
	return p.nw.spawnTask(prefix, a, b, d)
}

// WaitTasks joins continuation children: it blocks until every given
// task has finished, returns the first non-nil error among them
// (all are joined regardless), and releases the joined tasks to the spawn
// pool.
func (p *Proc) WaitTasks(tasks ...*Task) error {
	var first error
	for _, t := range tasks {
		_, err := p.Await(t.doneSession)
		if err != nil && first == nil {
			first = err
		}
		p.nw.releaseTask(t)
	}
	return first
}

// releaseTask parks a joined task in the pool. Only the consumer of the
// done session may release — anyone else could still await the recycled
// session of a re-spawned task.
func (nw *Network) releaseTask(t *Task) {
	if !t.finished || t.pooled {
		return
	}
	t.pooled = true
	nw.taskFree = append(nw.taskFree, t)
}

// stepTask advances a task on the engine goroutine until it parks on an
// incomplete session or finishes. Awaiting an already-completed session
// consumes it and continues stepping inline — the continuation analogue of
// Await returning immediately.
func (nw *Network) stepTask(t *Task, w Wake) {
	for {
		next, done, err := t.d.Step(t, w)
		if done {
			t.finished, t.err = true, err
			t.awaiting = 0
			t.d = nil
			nw.live--
			nw.CompleteSession(t.doneSession, nil, err)
			return
		}
		s := nw.lookupSession(next)
		if s == nil {
			nw.failTask(t, fmt.Errorf("congest: %s awaits unknown session %d", t.Name(), next))
			return
		}
		if s.completed {
			w = Wake{result: s.result, u: s.resultU, unboxed: s.unboxed, err: s.err}
			nw.freeSession(s)
			continue
		}
		if s.waiter != nil || s.twaiter != nil {
			nw.failTask(t, fmt.Errorf("congest: session %d already has a waiter", next))
			return
		}
		s.twaiter = t
		t.awaiting = next
		return
	}
}

// failTask finishes a task with an engine-detected error (bad await).
func (nw *Network) failTask(t *Task, err error) {
	t.finished, t.err = true, err
	t.awaiting = 0
	t.d = nil
	nw.live--
	nw.CompleteSession(t.doneSession, nil, err)
}

// drainTaskPool drops every task at Run end, mirroring drainProcs.
// Tasks hold no goroutines, so draining is just forgetting them — except
// that a task parked mid-await (the state a panic exit leaves it in) must
// unbind itself from its session first, or the stale waiter pointer would
// corrupt a later Run on the same network. The machines tasks wrapped
// belong to their protocol packages.
func (nw *Network) drainTaskPool() {
	for _, t := range nw.allTasks {
		if t.finished || t.awaiting == 0 {
			continue
		}
		if s := nw.lookupSession(t.awaiting); s != nil && s.twaiter == t {
			s.twaiter = nil
		}
	}
	for i := range nw.allTasks {
		nw.allTasks[i] = nil
	}
	nw.allTasks = nw.allTasks[:0]
	for i := range nw.taskFree {
		nw.taskFree[i] = nil
	}
	nw.taskFree = nw.taskFree[:0]
}

// DriverStats reports the engine's driver high-water marks, the footprint
// gate for the continuation model: a build shows a handful of
// PeakGoroutines (the phase controllers) with the fan-out in PeakTasks
// (plain heap objects) — never a parked stack per fragment. Marks are
// monotone across Runs on the same network.
type DriverStats struct {
	// PeakGoroutines is the most driver goroutines ever created (the
	// allProcs high-water mark, each backed by a parked OS-thread stack).
	PeakGoroutines int
	// PeakTasks is the most continuation tasks ever created.
	PeakTasks int
	// PeakLive is the most concurrently-unfinished drivers, goroutines and
	// tasks together.
	PeakLive int
}

// DriverStats returns the driver high-water marks.
func (nw *Network) DriverStats() DriverStats {
	return DriverStats{
		PeakGoroutines: nw.peakProcs,
		PeakTasks:      nw.peakTasks,
		PeakLive:       nw.peakLive,
	}
}
