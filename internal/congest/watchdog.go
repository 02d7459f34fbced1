package congest

import (
	"context"
	"fmt"
	"strings"
)

// Watchdog bounds a Run's progress in scheduler time. All budgets are in
// clock units (rounds under the synchronous scheduler, virtual time under
// the asynchronous one) — never wall clock, so an armed watchdog that does
// not trip changes nothing observable: seeded reports stay byte-identical
// with the watchdog on or off, mirroring the Observer's passivity
// contract. The disabled path (no WithWatchdog option) costs one counter
// increment per session completion and one nil-flag check per delivery
// batch; no allocations.
type Watchdog struct {
	// MaxTime fails the Run once the clock passes it (0 = unbounded). The
	// whole-run budget: a trial that should finish in ~10k rounds with a
	// MaxTime of 1M only trips if something is genuinely wrong.
	MaxTime int64
	// StallTime fails the Run when the clock advances this far with no
	// session completing (0 = no stall detection). Sessions complete on
	// every protocol echo and phase barrier, so a healthy run
	// completes sessions constantly; a livelock (messages bouncing forever
	// with no driver progress) is exactly a clock that advances without
	// completions.
	StallTime int64
	// SessionTime fails the Run when any single open session outlives this
	// many clock units (0 = no per-session budget). Swept periodically —
	// a trip is detected within wdSweepEvery delivery batches of the
	// budget being exceeded, not at the exact round.
	SessionTime int64
}

func (w Watchdog) enabled() bool {
	return w.MaxTime > 0 || w.StallTime > 0 || w.SessionTime > 0
}

// WithWatchdog arms the engine watchdog for every Run on the network.
func WithWatchdog(w Watchdog) Option { return func(c *config) { c.wd = w } }

// WithContext attaches a cancellation context: Run fails with a
// *WatchdogError (Reason "cancelled") at the first delivery batch after
// ctx is done. This is the one wall-clock hole in the determinism story,
// by design — a cancelled trial reports an error, never metrics, so
// cancellation cannot perturb a successful report.
func WithContext(ctx context.Context) Option { return func(c *config) { c.ctx = ctx } }

// StuckDriver identifies one parked driver in a watchdog dump.
type StuckDriver struct {
	Name    string // diagnostic driver name
	Session uint64 // serial of the session it awaits
}

// StuckSession identifies one over-budget (or oldest-open) session in a
// watchdog dump.
type StuckSession struct {
	Serial uint64
	Age    int64 // clock units since the session opened
}

// WatchdogError is the structured diagnostic a tripped watchdog (or a
// cancelled context) fails the Run with: enough engine state to see what
// wedged without attaching a debugger to a hung process.
type WatchdogError struct {
	Reason            string // "round budget exceeded", "quiescence stall", "session budget exceeded", "cancelled: ..."
	Now               int64  // scheduler clock at the trip
	LastProgress      int64  // clock of the last session completion
	Completions       uint64 // sessions completed so far
	RunQueue          int    // pending run-queue entries (runnable drivers)
	LiveDrivers       int    // unfinished tasks
	OpenSessions      int    // allocated session slots
	PendingQuiescence int    // sessions waiting on a quiescence callback
	// Stuck lists up to maxStuckReported parked drivers; StuckMore counts
	// the rest. StuckSessions lists the oldest open sessions.
	Stuck         []StuckDriver
	StuckMore     int
	StuckSessions []StuckSession
}

// maxStuckReported bounds the dump so a million-driver fan-out cannot turn
// a diagnostic into a memory spike.
const maxStuckReported = 8

// wdSweepEvery is how many watchdog checks (one per delivery batch) pass
// between per-session budget sweeps; the sweep walks the whole slot table,
// so it must not run every batch.
const wdSweepEvery = 256

// Error renders the dump: a one-line summary followed by the stuck lists,
// stable enough to grep ("watchdog:", "stuck") in CI gates.
func (e *WatchdogError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "congest: watchdog: %s (clock %d, last progress %d, %d completions, runq %d, live drivers %d, open sessions %d, pending quiescence %d)",
		e.Reason, e.Now, e.LastProgress, e.Completions, e.RunQueue, e.LiveDrivers, e.OpenSessions, e.PendingQuiescence)
	if len(e.Stuck) > 0 {
		b.WriteString("; stuck drivers:")
		for _, s := range e.Stuck {
			fmt.Fprintf(&b, " %s(awaiting session %d)", s.Name, s.Session)
		}
		if e.StuckMore > 0 {
			fmt.Fprintf(&b, " +%d more", e.StuckMore)
		}
	}
	if len(e.StuckSessions) > 0 {
		b.WriteString("; oldest sessions:")
		for _, s := range e.StuckSessions {
			fmt.Fprintf(&b, " %d(age %d)", s.Serial, s.Age)
		}
	}
	return b.String()
}

// watchdogCheck runs once per delivery batch when a watchdog or context is
// attached. It returns the structured failure to abort the Run with, or
// nil.
func (nw *Network) watchdogCheck() error {
	if nw.ctx != nil {
		if err := nw.ctx.Err(); err != nil {
			return nw.watchdogTrip("cancelled: " + err.Error())
		}
	}
	if !nw.wdArmed {
		return nil
	}
	now := nw.sched.now()
	if nw.completions != nw.wdSeen {
		nw.wdSeen = nw.completions
		nw.wdLastProgress = now
	}
	if nw.wd.MaxTime > 0 && now > nw.wd.MaxTime {
		return nw.watchdogTrip("round budget exceeded")
	}
	if nw.wd.StallTime > 0 && now-nw.wdLastProgress > nw.wd.StallTime {
		return nw.watchdogTrip("quiescence stall")
	}
	if nw.wd.SessionTime > 0 {
		nw.wdChecks++
		if nw.wdChecks%wdSweepEvery == 0 {
			for i := range nw.slots {
				s := &nw.slots[i]
				if s.id != 0 && !s.completed && now-s.openedAt > nw.wd.SessionTime {
					return nw.watchdogTrip("session budget exceeded")
				}
			}
		}
	}
	return nil
}

// watchdogTrip assembles the diagnostic dump from live engine state.
func (nw *Network) watchdogTrip(reason string) *WatchdogError {
	now := nw.sched.now()
	e := &WatchdogError{
		Reason:            reason,
		Now:               now,
		LastProgress:      nw.wdLastProgress,
		Completions:       nw.completions,
		RunQueue:          len(nw.runq),
		LiveDrivers:       nw.live,
		OpenSessions:      nw.DriverStats().OpenSessions,
		PendingQuiescence: len(nw.quiescent),
	}
	for _, t := range nw.tasks {
		if t.finished || t.awaiting == 0 {
			continue
		}
		if len(e.Stuck) < maxStuckReported {
			e.Stuck = append(e.Stuck, StuckDriver{Name: t.Name(), Session: t.awaiting.Serial()})
		} else {
			e.StuckMore++
		}
	}
	// The oldest open sessions, by age (only meaningful when the watchdog
	// is armed: openedAt is stamped then). A bounded selection pass, not a
	// sort — the slot table can be large.
	if nw.wdArmed {
		for i := range nw.slots {
			s := &nw.slots[i]
			if s.id == 0 || s.completed {
				continue
			}
			age := now - s.openedAt
			if len(e.StuckSessions) < maxStuckReported {
				e.StuckSessions = append(e.StuckSessions, StuckSession{Serial: s.id.Serial(), Age: age})
				continue
			}
			// Replace the youngest reported session if this one is older.
			youngest := 0
			for j := 1; j < len(e.StuckSessions); j++ {
				if e.StuckSessions[j].Age < e.StuckSessions[youngest].Age {
					youngest = j
				}
			}
			if age > e.StuckSessions[youngest].Age {
				e.StuckSessions[youngest] = StuckSession{Serial: s.id.Serial(), Age: age}
			}
		}
	}
	return e
}
