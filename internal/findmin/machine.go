package findmin

import (
	"fmt"
	"math"
	"math/bits"

	"kkt/internal/congest"
	"kkt/internal/hashing"
	"kkt/internal/rng"
	"kkt/internal/sketch"
	"kkt/internal/tree"
)

// machineState is the explicit program counter of a FindMin Machine: one
// value per await point of the narrowing loop.
type machineState uint8

const (
	msIdle    machineState = iota
	msSurvey               // awaiting the bookkeeping survey (step 2)
	msLanes                // awaiting the w-lane TestOut parity word (steps 4-5)
	msHPEmpty              // awaiting HP-TestOut over the whole range (empty-cut check)
	msHPLow                // awaiting HP-TestOut below the fired lane (TestLow, step 6)
	msHPLane               // awaiting HP-TestOut over the fired lane (TestInterval, step 6)
	msDone
)

// Machine is FindMin (or FindMin-C) as an explicit state machine: the
// narrowing loop with each broadcast-and-echo await turned into a state.
// One Machine searches from one root; the Borůvka fan-out and the MSF
// repairs (internal/admit) run Machines as continuation tasks, so a
// million-fragment phase costs heap objects, not parked goroutine stacks.
// Reset re-arms a Machine in place — the embedded probe runners and alpha
// buffer are reused, so a warm phase allocates nothing per fragment.
// Machine implements congest.StepDriver and tree.Search; run it with
// Network.SpawnStep or a fan-out.
type Machine struct {
	pr   *tree.Protocol
	root congest.NodeID
	r    rng.RNG // re-seeded by Reset
	cfg  Config

	res Result
	st  machineState

	n       float64
	reps    int
	maxIter int
	rangeIv sketch.Interval
	lane    sketch.Interval // fired lane under verification

	testOut  *sketch.TestOutRunner
	survey   *sketch.SurveyRunner
	hpRun    *sketch.HPRunner
	alphaBuf [sketch.MaxReps]uint64
}

// NewMachine returns a reusable FindMin machine; arm it with Reset.
func NewMachine() *Machine {
	return &Machine{
		testOut: sketch.NewTestOutRunner(),
		survey:  sketch.NewSurveyRunner(),
		hpRun:   sketch.NewHPRunner(),
	}
}

// Reset arms the machine for one run from root over the marked tree
// containing it, drawing from its own stream re-seeded with seed, and
// reusing the probe runners and buffers.
func (m *Machine) Reset(pr *tree.Protocol, root congest.NodeID, seed uint64, cfg Config) {
	m.pr, m.root, m.cfg = pr, root, cfg
	m.r.Seed(seed)
	m.res, m.st = Result{}, msIdle
}

// Found implements tree.Search.
func (m *Machine) Found() (uint64, tree.Outcome) { return m.res.EdgeNum, m.res.Reason }

// Step advances the machine: see congest.StepDriver for the contract. The
// first call (zero Wake) starts the survey; each later call consumes the
// awaited broadcast-and-echo and starts the next one.
func (m *Machine) Step(_ *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	if m.st != msIdle {
		if err := w.Err(); err != nil {
			return m.fail(err)
		}
	}
	switch m.st {
	case msIdle:
		if m.cfg.Lanes < 2 {
			return m.fail(fmt.Errorf("findmin: need at least 2 lanes, got %d", m.cfg.Lanes))
		}
		if m.cfg.C < 1 {
			m.cfg.C = 1
		}
		m.n = float64(m.pr.Network().N())
		m.st = msSurvey
		return m.survey.Start(m.pr, m.root), false, nil

	case msSurvey:
		sv := m.survey.Result()
		if sv.UnmarkedDegreeSum == 0 {
			// No candidate edges at all: certainly empty, no search needed.
			m.res.Reason = tree.EmptyCut
			return m.done()
		}
		eps := math.Pow(m.n, -float64(m.cfg.C+1))
		m.reps = sketch.NumReps(eps, sv.DegreeSum)
		// Step 3: the search range covers every candidate composite weight.
		m.rangeIv = sketch.Interval{Lo: 1, Hi: sv.MaxComposite}
		m.maxIter = iterationBudget(m.cfg, m.n, float64(sv.MaxComposite))
		return m.iterate()

	case msLanes:
		word, err := w.U()
		if err != nil {
			return m.fail(err)
		}
		if word == 0 {
			// No lane fired: either the cut (within range) is empty or
			// TestOut failed everywhere. Distinguish w.h.p.
			return m.startHP(m.rangeIv, msHPEmpty)
		}
		// Step 6: smallest fired lane, by stride arithmetic over the range.
		minIdx := bits.TrailingZeros64(word)
		if numLanes := m.rangeIv.NumLanes(m.cfg.Lanes); minIdx >= numLanes {
			return m.fail(fmt.Errorf("findmin: fired lane %d beyond %d lanes", minIdx, numLanes))
		}
		m.lane = m.rangeIv.Lane(m.cfg.Lanes, minIdx)
		if m.cfg.VerifyNarrowing {
			if m.lane.Lo > m.rangeIv.Lo {
				// Step 6: TestLow — is there a lighter cut edge below the
				// fired lane that TestOut missed?
				return m.startHP(sketch.Interval{Lo: m.rangeIv.Lo, Hi: m.lane.Lo - 1}, msHPLow)
			}
			return m.startHP(m.lane, msHPLane)
		}
		return m.narrow()

	case msHPEmpty:
		if !m.hpRun.Leaving() {
			m.res.Reason = tree.EmptyCut
			return m.done()
		}
		return m.iterate()

	case msHPLow:
		if m.hpRun.Leaving() {
			return m.iterate() // paper step 8: repeat without narrowing
		}
		// TestInterval — confirm the fired lane (guards against the
		// vanishing chance HP-TestOut contradicts a certain positive).
		return m.startHP(m.lane, msHPLane)

	case msHPLane:
		if !m.hpRun.Leaving() {
			return m.iterate()
		}
		return m.narrow()
	}
	return m.fail(fmt.Errorf("findmin: Step in state %d", m.st))
}

// iterate starts the next narrowing iteration, or gives up when the budget
// is spent (FindMin-C's constant-probability failure mode).
func (m *Machine) iterate() (congest.SessionID, bool, error) {
	if m.res.Stats.Iterations >= m.maxIter {
		m.res.Reason = tree.GaveUp
		return m.done()
	}
	m.res.Stats.Iterations++
	// Steps 4-5: one broadcast carries a fresh odd hash; the echo carries
	// one TestOut bit per lane.
	h := hashing.NewOddHash(&m.r)
	m.st = msLanes
	return m.testOut.Start(m.pr, m.root, h, m.rangeIv, m.cfg.Lanes), false, nil
}

// startHP begins one HP-TestOut over iv and parks in the given state.
func (m *Machine) startHP(iv sketch.Interval, next machineState) (congest.SessionID, bool, error) {
	m.res.Stats.HPTests++
	sketch.DrawAlphasInto(&m.r, m.alphaBuf[:m.reps])
	m.st = next
	return m.hpRun.Start(m.pr, m.root, m.alphaBuf[:m.reps], iv), false, nil
}

// narrow commits to the verified fired lane (step 7a) and finishes when it
// has shrunk to a single composite weight.
func (m *Machine) narrow() (congest.SessionID, bool, error) {
	m.res.Stats.Narrowings++
	m.rangeIv = m.lane
	if m.rangeIv.Lo == m.rangeIv.Hi {
		comp := m.rangeIv.Lo
		layout := m.pr.Network().Layout()
		_, edgeNum := layout.SplitComposite(comp)
		a, b := layout.SplitEdgeNum(edgeNum)
		m.res.Reason = tree.FoundEdge
		m.res.Composite = comp
		m.res.EdgeNum = edgeNum
		m.res.A, m.res.B = congest.NodeID(a), congest.NodeID(b)
		return m.done()
	}
	return m.iterate()
}

func (m *Machine) done() (congest.SessionID, bool, error) {
	m.st = msDone
	// Machines step in driver context, so the lifecycle tally is emitted on
	// the engine goroutine in deterministic order.
	if o := m.pr.Network().Obs(); o != nil {
		o.Count("findmin."+m.res.Reason.String(), 1)
	}
	return 0, true, nil
}

func (m *Machine) fail(err error) (congest.SessionID, bool, error) {
	m.st = msDone
	if o := m.pr.Network().Obs(); o != nil {
		o.Count("findmin.error", 1)
	}
	return 0, true, err
}
