package findany

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

// machineState is the explicit program counter of a FindAny Machine: one
// value per await point of the attempt loop.
type machineState uint8

const (
	msIdle   machineState = iota
	msSurvey              // awaiting the bookkeeping survey (step 3a precondition)
	msGate                // awaiting the HP-TestOut emptiness gate (step 2)
	msLevel               // awaiting the level-parity vector (steps 3b/c)
	msXor                 // awaiting the XOR of edge numbers below 2^min (step 3d)
	msCount               // awaiting the endpoint count of the candidate (step 4)
	msDone
)

// Machine is FindAny (or FindAny-C) as an explicit state machine, the
// package's one implementation: the Borůvka-style fan-out in internal/st
// and the spanning-forest repairs (internal/admit) run Machines as
// continuation tasks instead of parking one goroutine per search. Reset
// re-arms a Machine in place; the embedded probe specs and alpha buffer
// are reused, so a warm phase allocates nothing per fragment.
type Machine struct {
	pr   *tree.Protocol
	root congest.NodeID
	r    rng.RNG // re-seeded by Reset
	cfg  Config

	res Result
	st  machineState

	n           float64
	reps        int
	l           int
	maxAttempts int
	h           hashing.PairwiseHash
	cand        uint64 // candidate edge number between msXor and msCount

	pb       *probes
	survey   *sketch.SurveyRunner
	hpRun    *sketch.HPRunner
	alphaBuf [sketch.MaxReps]uint64
}

// NewMachine returns a reusable FindAny machine; arm it with Reset.
func NewMachine() *Machine {
	return &Machine{pb: newProbes(), survey: sketch.NewSurveyRunner(), hpRun: sketch.NewHPRunner()}
}

// Reset arms the machine for one run from root over the marked tree
// containing it, drawing from its own stream re-seeded with seed, and
// reusing the probe specs and buffers.
func (m *Machine) Reset(pr *tree.Protocol, root congest.NodeID, seed uint64, cfg Config) {
	m.pr, m.root, m.cfg = pr, root, cfg
	m.r.Seed(seed)
	m.res, m.st = Result{}, msIdle
}

// Found implements tree.Search.
func (m *Machine) Found() (uint64, tree.Outcome) { return m.res.EdgeNum, m.res.Reason }

// Step advances the machine: see congest.StepDriver for the contract.
func (m *Machine) Step(_ *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	if m.st != msIdle {
		if err := w.Err(); err != nil {
			return m.fail(err)
		}
	}
	switch m.st {
	case msIdle:
		if m.cfg.C < 1 {
			m.cfg.C = 1
		}
		m.n = float64(m.pr.Network().N())
		m.st = msSurvey
		return m.survey.Start(m.pr, m.root), false, nil

	case msSurvey:
		sv := m.survey.Result()
		if sv.UnmarkedDegreeSum == 0 {
			m.res.Reason = tree.EmptyCut
			return m.done()
		}
		// Step 2: HP-TestOut gate with error parameter eps(n) < 1/(2n^c).
		eps := math.Pow(m.n, -float64(m.cfg.C)) / 2
		m.reps = sketch.NumReps(eps, sv.DegreeSum)
		// Hash range [2^l]: a power of two strictly greater than twice the
		// degree sum, so |W| <= DegreeSum < 2^(l-1) as Lemma 4 requires.
		m.l = bits.Len(uint(2 * sv.DegreeSum))
		if m.l < 2 {
			m.l = 2
		}
		if m.l > 63 {
			m.l = 63
		}
		m.maxAttempts = 1
		if m.cfg.Variant == Full {
			m.maxAttempts = int(math.Ceil(16 * math.Log(1/eps)))
			if m.maxAttempts < 1 {
				m.maxAttempts = 1
			}
		}
		m.res.Stats.HPTests++
		sketch.DrawAlphasInto(&m.r, m.alphaBuf[:m.reps])
		m.st = msGate
		full := sketch.Interval{Lo: 1, Hi: sv.MaxComposite}
		return m.hpRun.Start(m.pr, m.root, m.alphaBuf[:m.reps], full), false, nil

	case msGate:
		if !m.hpRun.Leaving() {
			m.res.Reason = tree.EmptyCut
			return m.done()
		}
		return m.attempt()

	case msLevel:
		vec, err := w.U()
		if err != nil {
			return m.fail(err)
		}
		if vec == 0 {
			return m.attempt() // no level has odd parity; resample
		}
		min := bits.TrailingZeros64(vec)
		// Step 3d: XOR of edge numbers below 2^min.
		m.pb.xorDown = xorDown{Hash: m.h, Min: min}
		m.pb.xorSpec.DownBits = m.h.Bits() + 8
		m.st = msXor
		return m.pr.StartBroadcastEcho(m.root, &m.pb.xorSpec), false, nil

	case msXor:
		x, err := w.U()
		if err != nil {
			return m.fail(err)
		}
		if x == 0 {
			return m.attempt()
		}
		// Step 4: Test — count in-tree endpoints of the candidate.
		m.cand = x
		m.pb.countDown = countDown{EdgeNum: x}
		m.st = msCount
		return m.pr.StartBroadcastEcho(m.root, &m.pb.countSpec), false, nil

	case msCount:
		sum, err := w.U()
		if err != nil {
			return m.fail(err)
		}
		if sum != 1 {
			return m.attempt()
		}
		a, b := m.pr.Network().Layout().SplitEdgeNum(m.cand)
		m.res.Reason = tree.FoundEdge
		m.res.EdgeNum = m.cand
		m.res.A, m.res.B = congest.NodeID(a), congest.NodeID(b)
		return m.done()
	}
	return m.fail(fmt.Errorf("findany: Step in state %d", m.st))
}

// attempt starts the next isolation attempt (steps 3b/c), or gives up when
// the budget is spent.
func (m *Machine) attempt() (congest.SessionID, bool, error) {
	if m.res.Stats.Attempts >= m.maxAttempts {
		m.res.Reason = tree.GaveUp
		return m.done()
	}
	m.res.Stats.Attempts++
	m.h = hashing.NewPairwiseHash(&m.r, m.l)
	m.pb.levelDown = levelVecDown{Hash: m.h, L: m.l}
	m.pb.levelSpec.DownBits = m.h.Bits()
	m.pb.levelSpec.UpBits = m.l + 1
	m.st = msLevel
	return m.pr.StartBroadcastEcho(m.root, &m.pb.levelSpec), false, nil
}

func (m *Machine) done() (congest.SessionID, bool, error) {
	m.st = msDone
	// Machines step in driver context, so the lifecycle tally is emitted on
	// the engine goroutine in deterministic order.
	if o := m.pr.Network().Obs(); o != nil {
		o.Count("findany."+m.res.Reason.String(), 1)
	}
	return 0, true, nil
}

func (m *Machine) fail(err error) (congest.SessionID, bool, error) {
	m.st = msDone
	if o := m.pr.Network().Obs(); o != nil {
		o.Count("findany.error", 1)
	}
	return 0, true, err
}
