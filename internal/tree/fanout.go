package tree

import (
	"fmt"

	"kkt/internal/congest"
)

// Outcome is how a finished Search ended.
type Outcome int

const (
	// FoundEdge: the search selected an outgoing edge.
	FoundEdge Outcome = iota + 1
	// EmptyCut: no edge leaves the tree (w.h.p. for the sketch searches).
	EmptyCut
	// GaveUp: the randomized search spent its budget without an answer.
	GaveUp
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case FoundEdge:
		return "found"
	case EmptyCut:
		return "empty-cut"
	case GaveUp:
		return "gave-up"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Search is a search for an edge leaving the tree of its root, run as a
// continuation driver: FindMin (the MSF), FindAny (the spanning forest)
// or the GHS convergecast. Borůvka phases run one per fragment under
// Fanout; repairs run one per deleted tree edge.
type Search interface {
	congest.StepDriver
	// Found reports how a finished search ended and, for FoundEdge, the
	// edge it selected.
	Found() (edgeNum uint64, o Outcome)
}

// Tally counts a phase's finished searches by Outcome.
type Tally [GaveUp + 1]int

// Fanout is the shared body of a Borůvka phase (paper §3.3): given the
// elected fragment leaders, it runs one Search per fragment as a
// continuation task, broadcasts Add Edge for every edge found (step (c)),
// waits out the phase barrier and applies the staged marks (step (d)). It
// also owns the phase's cost bracket: the PhaseMeter and the observer's
// PhaseStart/PhaseEnd annotations.
//
// A Fanout lives for one Build. A fragment binds a search from the
// fan-out's free list on its first Step, arms it there and returns it as
// soon as it has read the outcome, so the searches built are the most
// that were parked at once, not the fragment count: a one-node
// broadcast-and-echo completes at once, so the singleton fragments of
// phase 1 run to completion one after another on a single search. With
// the engine's task pool, a warm phase spawns its whole fan-out without
// allocating.
type Fanout[S Search] struct {
	pr        *Protocol
	proto     string
	prefix    string
	newSearch func() S
	arm       func(s S, phase int, leader congest.NodeID)

	meter congest.PhaseMeter
	phase int
	free  []S // searches bound to no running fragment
	tally Tally
	frags []fragment[S]
}

// NewFanout returns a fan-out over pr. proto names the protocol in the
// observer's phase annotations ("mst"), prefix names the per-fragment
// tasks ("<prefix>-p<phase>-f<leader>"), newSearch builds a search
// whenever a fragment starts while every search built so far is bound,
// and arm readies one for the fragment led by leader as it starts. arm
// must depend only on (phase, leader), so the start order draws nothing.
func NewFanout[S Search](pr *Protocol, proto, prefix string, newSearch func() S, arm func(s S, phase int, leader congest.NodeID)) *Fanout[S] {
	return &Fanout[S]{pr: pr, proto: proto, prefix: prefix, newSearch: newSearch, arm: arm}
}

// Begin opens a phase's cost bracket. Call it before the phase's
// elections, so their traffic is charged to the phase.
func (f *Fanout[S]) Begin() { f.meter.Begin(f.pr.nw) }

// Run executes the rest of the phase opened by Begin: spawn one fragment
// task per leader (in the given order, which fixes session serials), run
// the network to the phase barrier, then ApplyStaged. It returns the
// phase's searches tallied by outcome, together with the phase cost.
func (f *Fanout[S]) Run(phase int, leaders []congest.NodeID) (Tally, congest.PhaseCosts, error) {
	nw := f.pr.nw
	if o := nw.Obs(); o != nil {
		o.PhaseStart(f.proto, phase, len(leaders), nw.Now())
	}
	n := len(leaders)
	if len(f.frags) < n {
		f.frags = make([]fragment[S], n)
	}
	f.phase, f.tally = phase, Tally{}
	for i, leader := range leaders {
		fr := &f.frags[i]
		fr.fan, fr.leader, fr.bound, fr.adding = f, leader, false, false
		nw.SpawnStep(f.prefix, uint64(phase), uint64(leader), fr)
	}
	// Phase barrier ("while time < i*maxTime wait"): Run returns once every
	// search and Add-Edge broadcast has finished and the network is
	// quiescent. Then the waiting nodes' local mark application.
	if err := nw.Run(); err != nil {
		return Tally{}, congest.PhaseCosts{}, err
	}
	nw.ApplyStaged()
	cost := f.meter.End()
	if o := nw.Obs(); o != nil {
		o.PhaseEnd(f.proto, phase, nw.Now(), cost)
	}
	return f.tally, cost, nil
}

// fragment is the task body of one fragment in one phase: the search,
// then (when it found an edge) the Add-Edge broadcast-and-echo, whose
// endpoints stage marks that the phase barrier applies.
type fragment[S Search] struct {
	fan    *Fanout[S]
	search S // bound from the first Step until the outcome is read
	leader congest.NodeID
	bound  bool
	adding bool // the Add-Edge broadcast is in flight
}

// Step implements congest.StepDriver.
func (fr *fragment[S]) Step(t *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	if fr.adding {
		return 0, true, w.Err()
	}
	f := fr.fan
	if !fr.bound {
		if n := len(f.free); n > 0 {
			fr.search, f.free = f.free[n-1], f.free[:n-1]
		} else {
			fr.search = f.newSearch()
		}
		fr.bound = true
		f.arm(fr.search, f.phase, fr.leader)
	}
	next, done, err := fr.search.Step(t, w)
	if !done {
		return next, false, nil
	}
	if err != nil {
		return 0, true, err
	}
	edgeNum, o := fr.search.Found()
	f.free = append(f.free, fr.search)
	f.tally[o]++
	if o != FoundEdge {
		return 0, true, nil
	}
	fr.adding = true
	return f.pr.StartBroadcastEcho(fr.leader, AddEdgeSpec(edgeNum)), false, nil
}
