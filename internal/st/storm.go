package st

import (
	"kkt/internal/admit"
	"kkt/internal/congest"
	"kkt/internal/faultplan"
	"kkt/internal/findany"
	"kkt/internal/rng"
	"kkt/internal/tree"
)

// stormRepair is the one implementation of every ST repair: FindAny
// reconnection for deletes, a membership broadcast-and-echo for inserts,
// as an explicit continuation state machine. Quiescence and staged-mark
// application are the runner's job: the wave controller for a wave (see
// internal/admit), admit.RunOne for the single-op Delete/Insert in
// repair.go.
type stormRepair struct {
	nw *congest.Network
	pr *tree.Protocol
	fa *findany.Machine

	deleteStyle bool
	// root is the repair initiator and peer the other endpoint: the
	// smaller ID for single ops (the paper's initiator), the endpoint the
	// launcher's admission-time probe put on the smaller side of the live
	// marked forest for storms (see admit.SideProber).
	root, peer congest.NodeID
	seed       uint64
	cfg        findany.Config

	st     uint8
	action Action
}

const (
	ssStart uint8 = iota
	ssFindAny
	ssAddEdge
	ssContains
)

func (sr *stormRepair) reset(deleteStyle bool, a, b congest.NodeID, seed uint64, cfg findany.Config) {
	sr.deleteStyle, sr.root, sr.peer = deleteStyle, a, b
	sr.seed, sr.cfg = seed, cfg
	sr.st = ssStart
	sr.action = 0
}

// Action implements admit.Repair; valid once the task finished.
func (sr *stormRepair) Action() string { return sr.action.String() }

// Step implements congest.StepDriver.
func (sr *stormRepair) Step(t *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	switch sr.st {
	case ssStart:
		if sr.deleteStyle {
			sr.fa.Reset(sr.pr, sr.root, rng.New(sr.seed), sr.cfg)
			sr.st = ssFindAny
			return sr.stepFindAny(t, congest.Wake{})
		}
		sr.st = ssContains
		return sr.pr.StartBroadcastEcho(sr.root, containsSpec(sr.peer)), false, nil

	case ssFindAny:
		return sr.stepFindAny(t, w)

	case ssAddEdge:
		if err := w.Err(); err != nil {
			return 0, true, err
		}
		sr.action = Reconnected
		return 0, true, nil

	case ssContains:
		v, err := w.Value()
		if err != nil {
			return 0, true, err
		}
		if v.(bool) {
			sr.action = NoOp // same tree: a spanning forest ignores it
			return 0, true, nil
		}
		sr.nw.Node(sr.root).StageMark(sr.peer)
		sr.pr.SendMarkX(sr.root, sr.peer)
		sr.action = Added
		return 0, true, nil
	}
	panic("st: stormRepair stepped after done")
}

func (sr *stormRepair) stepFindAny(t *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	next, done, err := sr.fa.Step(t, w)
	if !done {
		return next, false, err
	}
	if err != nil {
		return 0, true, err
	}
	res, _ := sr.fa.Result()
	switch res.Reason {
	case findany.FoundEdge:
		sr.st = ssAddEdge
		return sr.pr.StartBroadcastEcho(sr.root, tree.AddEdgeSpec(res.EdgeNum)), false, nil
	case findany.EmptyCut:
		sr.action = Bridge
	default:
		sr.action = Failed
	}
	return 0, true, nil
}

// StormLauncher implements admit.Launcher for a maintained spanning
// forest. Weight-change events are invalid for the unweighted structure
// and are skipped defensively (Spec validation rejects such plans).
type StormLauncher struct {
	nw    *congest.Network
	pr    *tree.Protocol
	cfg   RepairConfig
	probe *admit.SideProber
	free  []*stormRepair
}

// NewStormLauncher returns a launcher maintaining the spanning forest on
// nw/pr.
func NewStormLauncher(nw *congest.Network, pr *tree.Protocol, cfg RepairConfig) *StormLauncher {
	return &StormLauncher{nw: nw, pr: pr, cfg: cfg, probe: admit.NewSideProber()}
}

func (l *StormLauncher) get() *stormRepair {
	if n := len(l.free); n > 0 {
		sr := l.free[n-1]
		l.free = l.free[:n-1]
		return sr
	}
	return &stormRepair{nw: l.nw, pr: l.pr, fa: findany.NewMachine()}
}

// Release implements admit.Launcher.
func (l *StormLauncher) Release(r admit.Repair) {
	l.free = append(l.free, r.(*stormRepair))
}

// Admit implements admit.Launcher.
func (l *StormLauncher) Admit(ev faultplan.Event, opSeed uint64, claim admit.Claim) admit.Decision {
	a, b := congest.NodeID(ev.A), congest.NodeID(ev.B)
	switch ev.Op {
	case faultplan.OpDelete:
		he := l.nw.Node(a).EdgeTo(b)
		if he == nil {
			return admit.Decision{Inline: true, Action: admit.Skipped, Op: "st.delete"}
		}
		if !he.Marked {
			l.nw.DeleteLink(a, b)
			return admit.Decision{Inline: true, Action: NoOp.String(), Op: "st.delete"}
		}
		if !claim(a) {
			return admit.Decision{Deferred: true}
		}
		l.nw.DeleteLink(a, b)
		root, peer := l.probe.Smaller(l.nw, a, b)
		sr := l.get()
		sr.reset(true, root, peer, l.cfg.Seed^uint64(a)<<32^uint64(b), l.cfg.FindAny)
		return admit.Decision{Op: "st.delete", Driver: sr}

	case faultplan.OpInsert:
		if a == b || l.nw.Node(a).EdgeTo(b) != nil {
			return admit.Decision{Inline: true, Action: admit.Skipped, Op: "st.insert"}
		}
		if !claim(a, b) {
			return admit.Decision{Deferred: true}
		}
		if err := l.nw.InsertLink(a, b, 1); err != nil {
			return admit.Decision{Inline: true, Action: admit.Skipped, Op: "st.insert"}
		}
		// The new edge is unmarked, so when the insert joins two trees the
		// probe still sees them separately — root in the smaller one.
		root, peer := l.probe.Smaller(l.nw, a, b)
		sr := l.get()
		sr.reset(false, root, peer, 0, l.cfg.FindAny)
		return admit.Decision{Op: "st.insert", Driver: sr}
	}
	return admit.Decision{Inline: true, Action: admit.Skipped, Op: "st.unknown"}
}
