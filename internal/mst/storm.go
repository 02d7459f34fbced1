package mst

import (
	"kkt/internal/admit"
	"kkt/internal/congest"
	"kkt/internal/faultplan"
	"kkt/internal/findmin"
	"kkt/internal/rng"
	"kkt/internal/tree"
)

// stormRepair is the one implementation of every MSF repair: FindMin
// reconnection for delete-style events, path-max settle for insert-style
// ones, as an explicit continuation state machine, so an admission wave of
// overlapping repairs costs heap objects, not parked goroutine stacks. It
// never awaits quiescence or applies staged marks itself — whoever runs it
// does, once the engine is quiescent: the wave controller for a whole wave
// (see internal/admit's safety argument), admit.RunOne for the single-op
// Delete/Insert/WeightChange in repair.go.
type stormRepair struct {
	nw *congest.Network
	pr *tree.Protocol
	fm *findmin.Machine

	deleteStyle bool
	// root is the repair initiator and peer the other endpoint. Single
	// ops root at the smaller ID, the paper's initiator. The storm
	// launcher roots at the endpoint whose side of the live marked forest
	// its admission-time probe found smaller, so the machine's tree
	// traversals stay proportional to the small side (the fault compiler's
	// Event.A orientation is only a modelled guess; see admit.SideProber).
	root, peer congest.NodeID
	seed       uint64
	cfg        findmin.Config

	st     uint8
	action Action
}

const (
	srStart uint8 = iota
	srFindMin
	srAddEdge
	srPathMax
	srSwap
)

func (sr *stormRepair) reset(deleteStyle bool, a, b congest.NodeID, seed uint64, cfg findmin.Config) {
	sr.deleteStyle, sr.root, sr.peer = deleteStyle, a, b
	sr.seed, sr.cfg = seed, cfg
	sr.st = srStart
	sr.action = 0
}

// Action implements admit.Repair; valid once the task finished.
func (sr *stormRepair) Action() string { return sr.action.String() }

// Step implements congest.StepDriver.
func (sr *stormRepair) Step(t *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	switch sr.st {
	case srStart:
		if sr.deleteStyle {
			sr.fm.Reset(sr.pr, sr.root, rng.New(sr.seed), sr.cfg)
			sr.st = srFindMin
			return sr.stepFindMin(t, congest.Wake{})
		}
		sr.st = srPathMax
		return sr.pr.StartBroadcastEcho(sr.root, pathMaxSpec(sr.peer)), false, nil

	case srFindMin:
		return sr.stepFindMin(t, w)

	case srAddEdge:
		if err := w.Err(); err != nil {
			return 0, true, err
		}
		sr.action = Reconnected
		return 0, true, nil

	case srPathMax:
		pm, err := w.U()
		if err != nil {
			return 0, true, err
		}
		switch {
		case pm == pathMissing:
			// peer is in a different tree: the new edge joins two trees.
			// The far half arrives via markx before the wave's Run
			// quiesces.
			sr.nw.Node(sr.root).StageMark(sr.peer)
			sr.pr.SendMarkX(sr.root, sr.peer)
			sr.action = Added
			return 0, true, nil
		case sr.nw.Node(sr.root).EdgeTo(sr.peer).Composite < pm:
			// pm is the path's maximum composite (pathAtTarget, an empty
			// path, is below every composite and so keeps the forest).
			sr.st = srSwap
			_, maxEdgeNum := sr.nw.Layout().SplitComposite(pm)
			spec := swapSpec(maxEdgeNum, sr.nw.Node(sr.root).EdgeTo(sr.peer).EdgeNum)
			return sr.pr.StartBroadcastEcho(sr.root, spec), false, nil
		default:
			sr.action = Kept
			return 0, true, nil
		}

	case srSwap:
		if err := w.Err(); err != nil {
			return 0, true, err
		}
		sr.action = Swapped
		return 0, true, nil
	}
	panic("mst: stormRepair stepped after done")
}

// stepFindMin delegates to the inner FindMin machine and, on completion,
// dispatches on its result: broadcast Add Edge for a found edge, or finish
// as a bridge or a failed search.
func (sr *stormRepair) stepFindMin(t *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	next, done, err := sr.fm.Step(t, w)
	if !done {
		return next, false, err
	}
	if err != nil {
		return 0, true, err
	}
	res, _ := sr.fm.Result()
	switch res.Reason {
	case findmin.FoundEdge:
		sr.st = srAddEdge
		return sr.pr.StartBroadcastEcho(sr.root, tree.AddEdgeSpec(res.EdgeNum)), false, nil
	case findmin.EmptyCut:
		sr.action = Bridge
	default:
		sr.action = Failed
	}
	return 0, true, nil
}

// StormLauncher implements admit.Launcher for a maintained weighted MSF:
// the admission-time classification mirrors Delete/Insert/WeightChange in
// repair.go — same seed derivations, same inline no-op cases, same
// stormRepair machines.
type StormLauncher struct {
	nw    *congest.Network
	pr    *tree.Protocol
	cfg   RepairConfig
	probe *admit.SideProber
	free  []*stormRepair
}

// NewStormLauncher returns a launcher maintaining the MSF on nw/pr.
func NewStormLauncher(nw *congest.Network, pr *tree.Protocol, cfg RepairConfig) *StormLauncher {
	return &StormLauncher{nw: nw, pr: pr, cfg: cfg, probe: admit.NewSideProber()}
}

func (l *StormLauncher) get() *stormRepair {
	if n := len(l.free); n > 0 {
		sr := l.free[n-1]
		l.free = l.free[:n-1]
		return sr
	}
	return &stormRepair{nw: l.nw, pr: l.pr, fm: findmin.NewMachine()}
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
			return admit.Decision{Inline: true, Action: admit.Skipped, Op: "mst.delete"}
		}
		if !he.Marked {
			l.nw.DeleteLink(a, b)
			return admit.Decision{Inline: true, Action: NoOp.String(), Op: "mst.delete"}
		}
		if !claim(a) {
			return admit.Decision{Deferred: true}
		}
		l.nw.DeleteLink(a, b)
		root, peer := l.probe.Smaller(l.nw, a, b)
		sr := l.get()
		sr.reset(true, root, peer, l.cfg.Seed^uint64(a)<<32^uint64(b), l.cfg.FindMin)
		return admit.Decision{Op: "mst.delete", Driver: sr}

	case faultplan.OpInsert:
		if a == b || l.nw.Node(a).EdgeTo(b) != nil {
			return admit.Decision{Inline: true, Action: admit.Skipped, Op: "mst.insert"}
		}
		if !claim(a, b) {
			return admit.Decision{Deferred: true}
		}
		if err := l.nw.InsertLink(a, b, ev.Raw); err != nil {
			return admit.Decision{Inline: true, Action: admit.Skipped, Op: "mst.insert"}
		}
		// The inserted edge is not yet marked, so the probe still sees two
		// separate trees when the insert is a join — rooting the path probe
		// in the smaller one keeps joins cheap.
		root, peer := l.probe.Smaller(l.nw, a, b)
		sr := l.get()
		sr.reset(false, root, peer, 0, l.cfg.FindMin)
		return admit.Decision{Op: "mst.insert", Driver: sr}

	case faultplan.OpWeightChange:
		he := l.nw.Node(a).EdgeTo(b)
		if he == nil {
			return admit.Decision{Inline: true, Action: admit.Skipped, Op: "mst.reweight"}
		}
		oldRaw, wasMarked := he.Raw, he.Marked
		if ev.Raw == oldRaw {
			return admit.Decision{Inline: true, Action: NoOp.String(), Op: "mst.reweight"}
		}
		// An out-of-range weight is refused by SetRawWeight; each branch
		// checks that before touching a mark or launching a repair.
		skipped := admit.Decision{Inline: true, Action: admit.Skipped, Op: "mst.reweight"}
		switch {
		case wasMarked && ev.Raw > oldRaw:
			// Increase on a tree edge: unmark and repair like a deletion,
			// with the edge staying available as its own replacement.
			if !claim(a) {
				return admit.Decision{Deferred: true}
			}
			if err := l.nw.SetRawWeight(a, b, ev.Raw); err != nil {
				return skipped
			}
			l.nw.SetMark(a, b, false)
			root, peer := l.probe.Smaller(l.nw, a, b)
			sr := l.get()
			sr.reset(true, root, peer, l.cfg.Seed^uint64(a)<<32^uint64(b)^0x5851f42d4c957f2d, l.cfg.FindMin)
			return admit.Decision{Op: "mst.reweight", Driver: sr}
		case !wasMarked && ev.Raw < oldRaw:
			// Decrease on a non-tree edge: like an insertion.
			if !claim(a, b) {
				return admit.Decision{Deferred: true}
			}
			if err := l.nw.SetRawWeight(a, b, ev.Raw); err != nil {
				return skipped
			}
			root, peer := l.probe.Smaller(l.nw, a, b)
			sr := l.get()
			sr.reset(false, root, peer, 0, l.cfg.FindMin)
			return admit.Decision{Op: "mst.reweight", Driver: sr}
		default:
			// No-op directions still apply the new weight.
			if err := l.nw.SetRawWeight(a, b, ev.Raw); err != nil {
				return skipped
			}
			return admit.Decision{Inline: true, Action: NoOp.String(), Op: "mst.reweight"}
		}
	}
	return admit.Decision{Inline: true, Action: admit.Skipped, Op: "mst.unknown"}
}
