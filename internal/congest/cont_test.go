package congest

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"kkt/internal/graph"
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

func TestTaskDriverBasic(t *testing.T) {
	nw, kind := echoNet(t, 2)
	var got uint64
	nw.SpawnStep("echo", &stepEcho{nw: nw, from: 1, to: 2, kind: kind, out: &got})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 101 {
		t.Errorf("echoed word = %d, want 101", got)
	}
}

func TestTaskFanoutWaitTasks(t *testing.T) {
	nw, kind := echoNet(t, 4)
	got := make([]uint64, 3)
	nw.Spawn("parent", func(p *Proc) error {
		var tasks []*Task
		for i := 0; i < 3; i++ {
			d := &stepEcho{nw: nw, from: NodeID(i + 1), to: NodeID(i + 2), kind: kind, out: &got[i]}
			tasks = append(tasks, p.GoStepTagged("echo", 1, uint64(i), d))
		}
		return p.WaitTasks(tasks...)
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if want := uint64(i + 101); g != want {
			t.Errorf("task %d echoed %d, want %d", i, g, want)
		}
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
	nw.SpawnStep("inline", &stepAwaitCompleted{nw: nw, out: &got})
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

// TestTaskPoolReuseWithinRun: a second fan-out phase inside one Run must
// reuse the first phase's Task objects entirely.
func TestTaskPoolReuseWithinRun(t *testing.T) {
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g)
	created := func() int { return len(nw.allTasks) }
	nw.Spawn("outer", func(p *Proc) error {
		var tasks []*Task
		base := 0
		for phase := 0; phase < 3; phase++ {
			tasks = tasks[:0]
			for i := 0; i < 32; i++ {
				tasks = append(tasks, p.GoStepTagged("child", uint64(phase), uint64(i), nopDriver))
			}
			if err := p.WaitTasks(tasks...); err != nil {
				return err
			}
			if phase == 0 {
				base = created()
			} else if got := created(); got != base {
				return fmt.Errorf("phase %d created %d new tasks, want 0", phase, got-base)
			}
		}
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if len(nw.allTasks) != 0 || len(nw.taskFree) != 0 {
		t.Fatalf("task pool not drained at Run end: %d tasks, %d free", len(nw.allTasks), len(nw.taskFree))
	}
}

// TestTaskSpawnAllocs pins the continuation spawn path: after a warm-up
// wave, a 2-phase fan-out of 64 tasks per phase costs only the first
// phase's Task objects per Run (the pool drains at Run end) — far below
// goroutine+channel costs, and the second phase must be free.
func TestTaskSpawnAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g)
	var tasks []*Task
	wave := func() {
		nw.Spawn("outer", func(p *Proc) error {
			for phase := 0; phase < 2; phase++ {
				tasks = tasks[:0]
				for i := 0; i < 64; i++ {
					tasks = append(tasks, p.GoStepTagged("child", uint64(phase), uint64(i), nopDriver))
				}
				if err := p.WaitTasks(tasks...); err != nil {
					return err
				}
			}
			return nil
		})
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
	}
	wave()
	avg := testing.AllocsPerRun(5, wave)
	// Budget: 64 fresh Tasks in phase 1 (one small struct each, no
	// goroutines, no channels), phase 2 free, plus constant slack.
	allocBudget(t, "continuation fan-out (2 phases x 64 tasks)", avg, 64+32)
}

// stepPanic panics mid-step with a recognizable value.
type stepPanic struct{ val string }

func (d stepPanic) Step(*Task, Wake) (SessionID, bool, error) { panic(d.val) }

// TestDriverPanicParity: a panicking driver surfaces out of Run with the
// original panic value, whether it is a task or a goroutine driver.
func TestDriverPanicParity(t *testing.T) {
	catch := func(spawn func(nw *Network)) (val any) {
		nw := buildNet(t, 2)
		spawn(nw)
		defer func() { val = recover() }()
		_ = nw.Run()
		return nil
	}
	fromTask := catch(func(nw *Network) {
		nw.SpawnStep("boom", stepPanic{val: "driver exploded"})
	})
	fromProc := catch(func(nw *Network) {
		nw.Spawn("boom", func(p *Proc) error { panic("driver exploded") })
	})
	if fromTask != "driver exploded" {
		t.Errorf("task panic surfaced as %v", fromTask)
	}
	if fromProc != "driver exploded" {
		t.Errorf("proc panic surfaced as %v", fromProc)
	}
	if fromTask != fromProc {
		t.Errorf("panic parity broken: task %v vs proc %v", fromTask, fromProc)
	}
}

// TestDriverPanicUnwindsBlockedDrivers: when a panic aborts a Run, every
// other driver goroutine must exit with the Run (pending Awaits return
// ErrRunAborted) and the network must stay usable for a fresh Run — no
// leaked stacks, no stale waiter pointers, no stranded tasks.
func TestDriverPanicUnwindsBlockedDrivers(t *testing.T) {
	nw, kind := echoNet(t, 8)
	var blockedErr error
	run := func() (val any) {
		defer func() { val = recover() }()
		// Run-queue order: the first driver parks on a session nobody
		// completes; the second spawns a task and panics while that task
		// and the third driver still wait in the run queue, never started.
		nw.Spawn("blocked", func(p *Proc) error {
			sid := nw.NewSession(nil)
			_, err := p.Await(sid)
			blockedErr = err
			return err
		})
		nw.Spawn("parent", func(p *Proc) error {
			p.GoStepTagged("unstarted", 1, 1, nopDriver)
			panic("abort mid-fanout")
		})
		nw.Spawn("unstarted", func(*Proc) error { return nil })
		_ = nw.Run()
		return nil
	}
	before := runtime.NumGoroutine()
	if got := run(); got != "abort mid-fanout" {
		t.Fatalf("panic surfaced as %v", got)
	}
	if !errors.Is(blockedErr, ErrRunAborted) {
		t.Fatalf("blocked driver unwound with %v, want ErrRunAborted", blockedErr)
	}
	for i := 0; i < 100 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(time.Millisecond) // let poisoned loops exit
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines leaked across panicked Run: %d -> %d", before, after)
	}
	// The same network must run cleanly afterwards.
	var got uint64
	nw.SpawnStep("echo", &stepEcho{nw: nw, from: 1, to: 2, kind: kind, out: &got})
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

// TestTaskDeadlockDetectedAndUnwound mirrors the goroutine-driver deadlock
// test: a blocked task is diagnosed, woken with ErrDeadlock, and unwinds.
func TestTaskDeadlockDetectedAndUnwound(t *testing.T) {
	nw := buildNet(t, 2)
	var sawErr error
	nw.SpawnStep("stuck", &stepStuck{nw: nw, sawErr: &sawErr})
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
	nw.Spawn("outer", func(p *Proc) error {
		tk := p.GoStepTagged("findmin", 3, 17, nopDriver)
		name = tk.Name()
		return p.WaitTasks(tk)
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if name != "findmin-p3-f17" {
		t.Fatalf("tagged task name %q, want findmin-p3-f17", name)
	}
}
