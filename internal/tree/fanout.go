package tree

import "kkt/internal/congest"

// Search is one fragment's per-phase search in a Borůvka fan-out: a
// continuation driver rooted at the fragment leader that, once finished,
// reports the outgoing edge it selected. FindMin-C (Build MST), FindAny-C
// (Build ST) and the GHS convergecast are the three searches.
type Search interface {
	congest.StepDriver
	// Arm readies the search for the fragment led by leader in the given
	// phase. The fan-out calls it immediately before spawning the search.
	Arm(phase int, leader congest.NodeID)
	// Found reports the edge a successfully finished search selected; ok
	// is false when the fragment adds no edge this phase.
	Found() (edgeNum uint64, ok bool)
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

	meter    congest.PhaseMeter
	searches []S
	frags    []fragment[S]
}

// NewFanout returns a fan-out over pr. proto names the protocol in the
// observer's phase annotations ("mst"), prefix names the per-fragment
// tasks ("<prefix>-p<phase>-f<leader>"), and newSearch builds a search
// whenever a phase has more fragments than any before it.
func NewFanout[S Search](pr *Protocol, proto, prefix string, newSearch func() S) *Fanout[S] {
	return &Fanout[S]{pr: pr, proto: proto, prefix: prefix, newSearch: newSearch}
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
		s.Arm(phase, leader)
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
	edgeNum, ok := fr.search.Found()
	if !ok {
		return 0, true, nil
	}
	fr.adding = true
	return fr.pr.StartBroadcastEcho(fr.leader, AddEdgeSpec(edgeNum)), false, nil
}
