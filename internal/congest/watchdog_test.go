package congest

import (
	"context"
	"errors"
	"strings"
	"testing"

	"kkt/internal/graph"
)

// spawnLivelock wires a handler that bounces a message between nodes 1 and
// 2 forever, plus a task awaiting a session nobody completes: the clock
// advances but no session ever finishes — the stall a lost wakeup causes.
func spawnLivelock(nw *Network, kind KindID) {
	nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
		nw.Send(node.ID, msg.From, kind, msg.Session, 8, nil)
	})
	nw.SpawnStep("wedged", 0, 0, &stepSend{nw: nw, kind: kind})
}

func TestWatchdogTripsOnStall(t *testing.T) {
	nw := buildNet(t, 2, WithWatchdog(Watchdog{StallTime: 64}))
	spawnLivelock(nw, Kind("wd.bounce"))
	err := nw.Run()
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("Run returned %v, want *WatchdogError", err)
	}
	if we.Reason != "quiescence stall" {
		t.Errorf("reason = %q", we.Reason)
	}
	if we.LiveDrivers != 1 {
		t.Errorf("live drivers = %d, want 1", we.LiveDrivers)
	}
	if len(we.Stuck) != 1 || we.Stuck[0].Name != "wedged-p0-f0" {
		t.Errorf("stuck drivers = %+v, want the wedged driver", we.Stuck)
	}
	if len(we.StuckSessions) == 0 {
		t.Errorf("dump has no stuck sessions")
	}
	if we.Now-we.LastProgress <= 64 {
		t.Errorf("trip at clock %d with last progress %d: stall budget not exceeded", we.Now, we.LastProgress)
	}
	msg := err.Error()
	for _, want := range []string{"watchdog:", "quiescence stall", "stuck drivers:", "wedged"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
	// The trip must unwind cleanly: Run stays callable (no wedged pool
	// state, no panic). The livelock traffic is still in flight — aborting
	// does not rewrite the network — so the second Run trips again rather
	// than hanging, which is exactly the watchdog's job.
	nw.SpawnStep("after", 0, 0, nopDriver)
	err = nw.Run()
	if !errors.As(err, &we) {
		t.Fatalf("second Run returned %v, want another *WatchdogError", err)
	}
}

func TestWatchdogTripsOnMaxTime(t *testing.T) {
	nw := buildNet(t, 2, WithWatchdog(Watchdog{MaxTime: 32}))
	spawnLivelock(nw, Kind("wd.bounce2"))
	err := nw.Run()
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("Run returned %v, want *WatchdogError", err)
	}
	if we.Reason != "round budget exceeded" {
		t.Errorf("reason = %q", we.Reason)
	}
	if we.Now <= 32 {
		t.Errorf("tripped at clock %d, before the budget", we.Now)
	}
}

func TestWatchdogTripsOnSessionBudget(t *testing.T) {
	// A healthy-looking run where sessions keep completing, but one session
	// is never finished: a chain of bounced generations each completing a
	// fresh session, driven by a relay task. Stall detection stays quiet
	// (completions advance); only the per-session budget catches it.
	nw := buildNet(t, 2, WithWatchdog(Watchdog{SessionTime: 128}))
	kind := Kind("wd.relay")
	nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
		nw.CompleteSession(msg.Session, nil, nil)
	})
	nw.NewSession(nil) // never completed
	nw.SpawnStep("relay", 0, 0, stepFunc(func(_ *Task, w Wake) (SessionID, bool, error) {
		if err := w.Err(); err != nil {
			return 0, true, err
		}
		sid := nw.NewSession(nil)
		nw.Send(1, 2, kind, sid, 8, nil)
		return sid, false, nil
	}))
	err := nw.Run()
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("Run returned %v, want *WatchdogError", err)
	}
	if we.Reason != "session budget exceeded" {
		t.Errorf("reason = %q", we.Reason)
	}
}

func TestContextCancelAbortsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	nw := buildNet(t, 2, WithContext(ctx))
	kind := Kind("wd.cancel")
	nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
		nw.Send(node.ID, msg.From, kind, msg.Session, 8, nil)
	})
	nw.SpawnStep("looper", 0, 0, &stepSend{nw: nw, kind: kind})
	cancel() // cancelled before Run: the first batch check aborts
	err := nw.Run()
	var we *WatchdogError
	if !errors.As(err, &we) {
		t.Fatalf("Run returned %v, want *WatchdogError", err)
	}
	if !strings.HasPrefix(we.Reason, "cancelled: ") {
		t.Errorf("reason = %q", we.Reason)
	}
}

// TestWatchdogByteIdentity is the passivity contract: an armed watchdog
// that does not trip changes nothing observable — counters, clock, session
// serials and results are identical with the watchdog on or off.
func TestWatchdogByteIdentity(t *testing.T) {
	run := func(opts ...Option) (Counters, int64, uint64) {
		g := graph.Path(8, 1, graph.UnitWeights())
		nw := NewNetwork(g, append([]Option{WithSeed(11)}, opts...)...)
		kind := Kind("wd.chain")
		nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
			next := node.ID + 1
			if int(next) > nw.N() {
				nw.CompleteSession(msg.Session, msg.U, nil)
				return
			}
			nw.SendU(node.ID, next, kind, msg.Session, 8, msg.U+1)
		})
		for i := 0; i < 4; i++ {
			sid := nw.NewSession(nil)
			nw.SendU(1, 2, kind, sid, 8, 0)
			if err := nw.Run(); err != nil {
				t.Fatal(err)
			}
			if _, err := nw.Take(sid).U(); err != nil {
				t.Fatal(err)
			}
		}
		lastSerial := nw.NewSession(nil).Serial()
		return nw.Counters(), nw.Now(), lastSerial
	}
	cOff, nowOff, serOff := run()
	cOn, nowOn, serOn := run(WithWatchdog(Watchdog{MaxTime: 1 << 40, StallTime: 1 << 30, SessionTime: 1 << 30}))
	if cOff.Messages != cOn.Messages || cOff.Bits != cOn.Bits {
		t.Errorf("counters differ: off %+v on %+v", cOff, cOn)
	}
	if nowOff != nowOn {
		t.Errorf("clock differs: off %d on %d", nowOff, nowOn)
	}
	if serOff != serOn {
		t.Errorf("session serials differ: off %d on %d", serOff, serOn)
	}
}
