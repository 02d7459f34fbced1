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

// Fanout is the shared body of a Borůvka phase (paper §3.3): given the
// elected fragment leaders, it runs one Search per fragment as a
// continuation task, broadcasts Add Edge for every edge found (step (c)),
// waits out the phase barrier and applies the staged marks (step (d)). It
// also owns the phase's cost bracket: the PhaseMeter and the observer's
// PhaseStart/PhaseEnd annotations.
//
// A Fanout lives for one Build. Fragment counts only shrink from phase to
// phase, so the searches and their task bodies are allocated in the first
// phase and re-armed afterwards; with the engine's task pool, a warm phase
// spawns its whole fan-out without allocating.
type Fanout[S Search] struct {
	pr        *Protocol
	proto     string
	prefix    string
	newSearch func() S
	arm       func(s S, phase int, leader congest.NodeID)

	meter    congest.PhaseMeter
	searches []S
	frags    []fragment[S]
}

// NewFanout returns a fan-out over pr. proto names the protocol in the
// observer's phase annotations ("mst"), prefix names the per-fragment
// tasks ("<prefix>-p<phase>-f<leader>"), newSearch builds a search
// whenever a phase has more fragments than any before it, and arm readies
// one for the fragment led by leader, immediately before it is spawned.
func NewFanout[S Search](pr *Protocol, proto, prefix string, newSearch func() S, arm func(s S, phase int, leader congest.NodeID)) *Fanout[S] {
	return &Fanout[S]{pr: pr, proto: proto, prefix: prefix, newSearch: newSearch, arm: arm}
}

// Begin opens a phase's cost bracket. Call it before the phase's
// elections, so their traffic is charged to the phase.
func (f *Fanout[S]) Begin() { f.meter.Begin(f.pr.nw) }

// Run executes the rest of the phase opened by Begin: arm and spawn one
// search per leader (in the given order, which fixes session serials),
// run the network to the phase barrier, then ApplyStaged. It returns the
// phase's searches, index-aligned with leaders and valid until the next
// Run, together with the phase cost.
func (f *Fanout[S]) Run(phase int, leaders []congest.NodeID) ([]S, congest.PhaseCosts, error) {
	nw := f.pr.nw
	if o := nw.Obs(); o != nil {
		o.PhaseStart(f.proto, phase, len(leaders), nw.Now())
	}
	n := len(leaders)
	if len(f.frags) < n {
		f.frags = make([]fragment[S], n)
	}
	for i, leader := range leaders {
		// New searches are built here, interleaved with the spawns: building
		// all of phase 1's up front shifts the GC schedule and raised a 100k
		// build's peak RSS by ~9%.
		if i == len(f.searches) {
			f.searches = append(f.searches, f.newSearch())
		}
		s := f.searches[i]
		f.arm(s, phase, leader)
		fr := &f.frags[i]
		fr.search, fr.pr, fr.leader, fr.adding = s, f.pr, leader, false
		nw.SpawnStep(f.prefix, uint64(phase), uint64(leader), fr)
	}
	// Phase barrier ("while time < i*maxTime wait"): Run returns once every
	// search and Add-Edge broadcast has finished and the network is
	// quiescent. Then the waiting nodes' local mark application.
	if err := nw.Run(); err != nil {
		return nil, congest.PhaseCosts{}, err
	}
	nw.ApplyStaged()
	cost := f.meter.End()
	if o := nw.Obs(); o != nil {
		o.PhaseEnd(f.proto, phase, nw.Now(), cost)
	}
	return f.searches[:n], cost, nil
}

// fragment is the task body of one fragment in one phase: the search,
// then (when it found an edge) the Add-Edge broadcast-and-echo, whose
// endpoints stage marks that the phase barrier applies.
type fragment[S Search] struct {
	search S
	pr     *Protocol
	leader congest.NodeID
	adding bool // the Add-Edge broadcast is in flight
}

// Step implements congest.StepDriver.
func (fr *fragment[S]) Step(t *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	if fr.adding {
		_, err := w.Value()
		return 0, true, err
	}
	next, done, err := fr.search.Step(t, w)
	if !done {
		return next, false, nil
	}
	if err != nil {
		return 0, true, err
	}
	edgeNum, o := fr.search.Found()
	if o != FoundEdge {
		return 0, true, nil
	}
	fr.adding = true
	return fr.pr.StartBroadcastEcho(fr.leader, AddEdgeSpec(edgeNum)), false, nil
}
