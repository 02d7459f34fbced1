package congest

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"kkt/internal/race"
)

// stepEcho is a minimal two-state continuation driver: send one unboxed
// message, await the session it completes, record the echoed word.
type stepEcho struct {
	nw       *Network
	from, to NodeID
	kind     KindID
	out      *uint64
	started  bool
}

func (d *stepEcho) Step(t *Task, w Wake) (SessionID, bool, error) {
	if !d.started {
		d.started = true
		sid := d.nw.NewSession(nil)
		d.nw.SendU(d.from, d.to, d.kind, sid, 8, uint64(d.from))
		return sid, false, nil
	}
	u, err := w.U()
	if err != nil {
		return 0, true, err
	}
	*d.out = u
	return 0, true, nil
}

// echoNet returns a path network with a kind whose handler echoes the
// message word back through the session, unboxed.
func echoNet(t *testing.T, n int) (*Network, KindID) {
	t.Helper()
	nw := buildNet(t, n)
	kind := Kind("cont.echo")
	if !nw.HasHandler(kind) {
		nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
			nw.CompleteSessionU(msg.Session, msg.U+100, nil)
		})
	}
	return nw, kind
}

// stepFunc adapts a closure to a StepDriver.
type stepFunc func(t *Task, w Wake) (SessionID, bool, error)

func (f stepFunc) Step(t *Task, w Wake) (SessionID, bool, error) { return f(t, w) }

// stepSend sends one message on a fresh session and awaits that session.
type stepSend struct {
	nw      *Network
	kind    KindID
	started bool
}

func (d *stepSend) Step(t *Task, w Wake) (SessionID, bool, error) {
	if d.started {
		return 0, true, w.Err()
	}
	d.started = true
	sid := d.nw.NewSession(nil)
	d.nw.Send(1, 2, d.kind, sid, 8, nil)
	return sid, false, nil
}

func TestTaskDriverBasic(t *testing.T) {
	nw, kind := echoNet(t, 2)
	var got uint64
	nw.SpawnStep("echo", 0, 0, &stepEcho{nw: nw, from: 1, to: 2, kind: kind, out: &got})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 101 {
		t.Errorf("echoed word = %d, want 101", got)
	}
}

// TestTaskFanout: tasks spawned before one Run all run to completion
// inside it, on the caller's goroutine — Run starts no goroutine of its
// own on an unsharded network.
func TestTaskFanout(t *testing.T) {
	nw, kind := echoNet(t, 4)
	got := make([]uint64, 3)
	before := runtime.NumGoroutine()
	during := 0
	for i := 0; i < 3; i++ {
		d := &stepEcho{nw: nw, from: NodeID(i + 1), to: NodeID(i + 2), kind: kind, out: &got[i]}
		nw.SpawnStep("echo", 1, uint64(i), d)
	}
	nw.SpawnStep("count", 1, 3, stepFunc(func(*Task, Wake) (SessionID, bool, error) {
		during = runtime.NumGoroutine()
		return 0, true, nil
	}))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if want := uint64(i + 101); g != want {
			t.Errorf("task %d echoed %d, want %d", i, g, want)
		}
	}
	if during != before {
		t.Errorf("%d goroutines during Run, %d before", during, before)
	}
}

// TestSpawnRunLeavesNoOpenSessions: a task's session is consumed by the
// task itself, so spawn+Run cycles leave no slot behind.
func TestSpawnRunLeavesNoOpenSessions(t *testing.T) {
	nw, kind := echoNet(t, 2)
	var got uint64
	for i := 0; i < 1000; i++ {
		nw.SpawnStep("echo", 0, uint64(i), &stepEcho{nw: nw, from: 1, to: 2, kind: kind, out: &got})
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if open := nw.DriverStats().OpenSessions; open != 0 {
		t.Errorf("1000 spawn+Run cycles left %d open sessions, want 0", open)
	}
}

// stepAwaitCompleted awaits a session that is already complete when Step
// returns it: the engine must consume it inline and keep stepping.
type stepAwaitCompleted struct {
	nw    *Network
	out   *uint64
	state int
}

func (d *stepAwaitCompleted) Step(t *Task, w Wake) (SessionID, bool, error) {
	switch d.state {
	case 0:
		d.state = 1
		sid := d.nw.NewSession(nil)
		d.nw.CompleteSessionU(sid, 7, nil) // complete before awaiting
		return sid, false, nil
	case 1:
		u, err := w.U()
		if err != nil {
			return 0, true, err
		}
		*d.out = u
		return 0, true, nil
	}
	return 0, true, fmt.Errorf("unexpected state %d", d.state)
}

func TestTaskAwaitsCompletedSessionInline(t *testing.T) {
	nw := buildNet(t, 2)
	var got uint64
	nw.SpawnStep("inline", 0, 0, &stepAwaitCompleted{nw: nw, out: &got})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Errorf("inline-consumed result = %d, want 7", got)
	}
}

// stepNop finishes on its first step; the task-pool gates spawn it.
type stepNop struct{}

func (stepNop) Step(*Task, Wake) (SessionID, bool, error) { return 0, true, nil }

var nopDriver stepNop

// TestTaskPoolReuseAcrossRuns: the task pool survives Run, so a second
// fan-out phase reuses the first phase's Task objects entirely.
func TestTaskPoolReuseAcrossRuns(t *testing.T) {
	nw := buildNet(t, 2)
	for phase := 0; phase < 3; phase++ {
		for i := 0; i < 32; i++ {
			nw.SpawnStep("child", uint64(phase), uint64(i), nopDriver)
		}
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		if got := nw.DriverStats().PeakTasks; got != 32 {
			t.Fatalf("phase %d: %d tasks created, want 32", phase, got)
		}
	}
	if len(nw.tasks) != 0 || len(nw.taskFree) != 32 {
		t.Fatalf("after Run: %d tasks on the Run list, %d pooled; want 0 and 32", len(nw.tasks), len(nw.taskFree))
	}
}

// TestTaskSpawnAllocs pins the continuation spawn path: a 2-phase fan-out
// of 64 tasks per phase, one Run per phase, allocates nothing once the
// pool is warm — far below goroutine+channel costs.
func TestTaskSpawnAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	nw := buildNet(t, 2)
	wave := func() {
		for phase := 0; phase < 2; phase++ {
			for i := 0; i < 64; i++ {
				nw.SpawnStep("child", uint64(phase), uint64(i), nopDriver)
			}
			if err := nw.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	wave()
	avg := testing.AllocsPerRun(5, wave)
	// Budget: at most one fresh Task per spawn of a phase (one small struct
	// each, no goroutines, no channels) plus constant slack.
	allocBudget(t, "continuation fan-out (2 phases x 64 tasks)", avg, 64+32)
}

// stepPanic panics mid-step with a recognizable value.
type stepPanic struct{ val string }

func (d stepPanic) Step(*Task, Wake) (SessionID, bool, error) { panic(d.val) }

// TestDriverPanicUnwindsBlockedDrivers: a task panicking mid-Run
// surfaces out of Run with the original value, and the network stays
// usable for a fresh Run — no stranded tasks, no stale waiter pointers.
func TestDriverPanicUnwindsBlockedDrivers(t *testing.T) {
	nw, kind := echoNet(t, 8)
	var stuck SessionID
	run := func() (val any) {
		defer func() { val = recover() }()
		// Run-queue order: the first task parks on a session nobody
		// completes; the second panics while the third still waits in the
		// run queue, never started.
		nw.SpawnStep("blocked", 0, 0, stepFunc(func(*Task, Wake) (SessionID, bool, error) {
			stuck = nw.NewSession(nil)
			return stuck, false, nil
		}))
		nw.SpawnStep("boom", 0, 0, stepPanic{val: "driver exploded"})
		nw.SpawnStep("unstarted", 0, 0, nopDriver)
		_ = nw.Run()
		return nil
	}
	if got := run(); got != "driver exploded" {
		t.Fatalf("panic surfaced as %v", got)
	}
	if s := nw.lookupSession(stuck); s == nil || s.twaiter != nil {
		t.Fatalf("blocked task still bound to its session: %+v", s)
	}
	if len(nw.tasks) != 0 || len(nw.runq) != 0 || nw.live != 0 {
		t.Fatalf("panicked Run left %d tasks, %d queued, %d live", len(nw.tasks), len(nw.runq), nw.live)
	}
	// The same network must run cleanly afterwards.
	var got uint64
	nw.SpawnStep("echo", 0, 0, &stepEcho{nw: nw, from: 1, to: 2, kind: kind, out: &got})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 101 {
		t.Errorf("post-panic run echoed %d, want 101", got)
	}
}

// stepStuck awaits a session nobody completes and records the error it is
// unwound with.
type stepStuck struct {
	nw      *Network
	sawErr  *error
	started bool
}

func (d *stepStuck) Step(t *Task, w Wake) (SessionID, bool, error) {
	if !d.started {
		d.started = true
		return d.nw.NewSession(nil), false, nil
	}
	*d.sawErr = w.Err()
	return 0, true, w.Err()
}

// TestTaskDeadlockDetectedAndUnwound: a blocked task is diagnosed, woken
// with ErrDeadlock, and unwinds.
func TestTaskDeadlockDetectedAndUnwound(t *testing.T) {
	nw := buildNet(t, 2)
	var sawErr error
	nw.SpawnStep("stuck", 0, 0, &stepStuck{nw: nw, sawErr: &sawErr})
	err := nw.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run error = %v, want deadlock", err)
	}
	if !errors.Is(sawErr, ErrDeadlock) {
		t.Fatalf("task did not observe deadlock: %v", sawErr)
	}
}

// TestTaggedTaskName: lazy task names format as "<prefix>-p<a>-f<b>".
func TestTaggedTaskName(t *testing.T) {
	nw := buildNet(t, 2)
	var name string
	nw.SpawnStep("findmin", 3, 17, stepFunc(func(tk *Task, _ Wake) (SessionID, bool, error) {
		name = tk.Name()
		return 0, true, nil
	}))
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if name != "findmin-p3-f17" {
		t.Fatalf("tagged task name %q, want findmin-p3-f17", name)
	}
}
