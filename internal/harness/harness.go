package harness

import (
	"fmt"
	"math"

	"kkt/internal/faultplan"
	"kkt/internal/graph"
)

// Graph family names understood by Spec.Family.
const (
	FamilyGNM       = "gnm"       // connected Erdős–Rényi G(n,m), m = 3n by default
	FamilyRing      = "ring"      // the n-cycle: constant degree, linear diameter
	FamilyGrid      = "grid"      // √n × √n grid
	FamilyExpander  = "expander"  // ring + random chords: constant degree, log diameter
	FamilyComplete  = "complete"  // K_n: the dense extreme
	FamilyTree      = "tree"      // uniformly random tree: m = n-1, no slack
	FamilyPowerLaw  = "powerlaw"  // preferential attachment: heavy-tailed degrees
	FamilyGeometric = "geometric" // random geometric in the unit square, m ~ n log n
	FamilyHypercube = "hypercube" // d-dimensional hypercube: n = 2^d, m = n·d/2
)

// Scheduler names understood by Spec.Sched.
const (
	SchedSync  = "sync"  // lockstep rounds
	SchedAsync = "async" // seeded per-message delays, FIFO per link
)

// Algorithm names understood by Spec.Algo.
const (
	AlgoMSTBuildAdaptive = "mst-build"       // Build MST, adaptive stop (paper §3.3)
	AlgoMSTBuildFixed    = "mst-build-fixed" // Build MST, full fixed phase budget
	AlgoMSTRepair        = "mst-repair"      // impromptu MSF repair storm (paper §3.2)
	AlgoSTBuild          = "st-build"        // Build ST via FindAny-C (paper §4.2)
	AlgoSTRepair         = "st-repair"       // impromptu ST repair storm (paper §4.3)
	AlgoGHS              = "ghs"             // Gallager–Humblet–Spira baseline
	AlgoFlood            = "flood"           // Θ(m) flooding baseline
	// AlgoDebugStall wires a deliberate engine livelock; it exists to
	// exercise the watchdog end to end (env-gated, never in the default
	// suite).
	AlgoDebugStall = "debug-stall"
)

// WatchdogSpec declares the engine watchdog budgets of a scenario, in
// scheduler-clock units (see congest.Watchdog). Zero fields are unbounded.
type WatchdogSpec struct {
	MaxTime     int64 `json:"max_time,omitempty"`
	StallTime   int64 `json:"stall_time,omitempty"`
	SessionTime int64 `json:"session_time,omitempty"`
}

// Spec declares one scenario: everything needed to run a trial except the
// seed. Specs are plain data so they serialize into reports and CLI
// listings.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// Family and N pick the topology; MaxRaw bounds raw edge weights
	// (default 1024). M (gnm only) overrides the edge count, default 3n.
	// Degree sets the target degree of the expander (default 4) and the
	// attachment count of the powerlaw family (default 3). Radius
	// (geometric only) sets the connection radius in the unit square,
	// default graph.GeometricRadius(n) ~ sqrt(3·ln n / (π·n)).
	Family string  `json:"family"`
	N      int     `json:"n"`
	MaxRaw uint64  `json:"max_raw,omitempty"`
	M      int     `json:"m,omitempty"`
	Degree int     `json:"degree,omitempty"`
	Radius float64 `json:"radius,omitempty"`

	// Sched picks the timing model; MaxDelay (async only) bounds the
	// per-message delay, default 4.
	Sched    string `json:"sched"`
	MaxDelay int64  `json:"max_delay,omitempty"`

	// Algo picks the protocol under test.
	Algo string `json:"algo"`

	// Plan is the dynamic workload of a repair algorithm (required there,
	// rejected elsewhere): a fault plan, compiled per trial against the
	// generated graph (uniform background deletes, inserts and weight
	// changes; targeted deletes, bursts, partition-and-heal), whose
	// events drain through the concurrent-repair admission queue in waves.
	Plan *faultplan.Plan `json:"plan,omitempty"`
	// Wave caps the concurrent repairs per admission wave (repair
	// scenarios only; default 64).
	Wave int `json:"wave,omitempty"`

	// Watchdog arms the engine watchdog for every Run of the trial.
	Watchdog *WatchdogSpec `json:"watchdog,omitempty"`
}

// withDefaults returns the spec with unset tunables filled in.
func (s Spec) withDefaults() Spec {
	if s.MaxRaw == 0 {
		s.MaxRaw = 1024
	}
	if s.Family == FamilyGNM && s.M == 0 {
		s.M = 3 * s.N
	}
	if s.Family == FamilyExpander && s.Degree == 0 {
		s.Degree = 4
	}
	if s.Family == FamilyPowerLaw && s.Degree == 0 {
		s.Degree = 3
	}
	if s.Family == FamilyGeometric && s.Radius == 0 {
		s.Radius = graph.GeometricRadius(s.N)
	}
	if s.Sched == SchedAsync && s.MaxDelay == 0 {
		s.MaxDelay = 4
	}
	return s
}

// Validate rejects malformed specs with a descriptive error. It checks
// the spec as a run will see it — with defaults applied — so a validated
// spec never fails on a defaulted tunable (e.g. gnm's default m=3n is out
// of range for n <= 6).
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("harness: spec has no name")
	}
	if s.N < 2 {
		return fmt.Errorf("harness: %s: n=%d, want >= 2", s.Name, s.N)
	}
	s = s.withDefaults()
	switch s.Family {
	case FamilyGNM:
		if s.M < s.N-1 || s.M > s.N*(s.N-1)/2 {
			return fmt.Errorf("harness: %s: gnm m=%d outside [n-1, n(n-1)/2]", s.Name, s.M)
		}
	case FamilyRing:
		if s.N < 3 {
			return fmt.Errorf("harness: %s: ring needs n >= 3", s.Name)
		}
	case FamilyGrid:
		r := int(math.Sqrt(float64(s.N)))
		if r*r != s.N {
			return fmt.Errorf("harness: %s: grid needs a square n, got %d", s.Name, s.N)
		}
	case FamilyExpander:
		if s.N < 3 {
			return fmt.Errorf("harness: %s: expander needs n >= 3", s.Name)
		}
		if s.Degree < 4 || s.Degree%2 != 0 {
			return fmt.Errorf("harness: %s: expander degree %d, want even and >= 4", s.Name, s.Degree)
		}
	case FamilyPowerLaw:
		if s.N < 2 {
			return fmt.Errorf("harness: %s: powerlaw needs n >= 2", s.Name)
		}
		if s.Degree < 1 {
			return fmt.Errorf("harness: %s: powerlaw degree %d, want >= 1", s.Name, s.Degree)
		}
	case FamilyGeometric:
		if s.Radius <= 0 || s.Radius > 1.5 {
			return fmt.Errorf("harness: %s: geometric radius %v outside (0, 1.5]", s.Name, s.Radius)
		}
	case FamilyHypercube:
		if s.N&(s.N-1) != 0 {
			return fmt.Errorf("harness: %s: hypercube needs a power-of-two n, got %d", s.Name, s.N)
		}
	case FamilyComplete, FamilyTree:
	default:
		return fmt.Errorf("harness: %s: unknown family %q", s.Name, s.Family)
	}
	switch s.Sched {
	case SchedSync, SchedAsync:
	default:
		return fmt.Errorf("harness: %s: unknown scheduler %q", s.Name, s.Sched)
	}
	if s.Plan != nil {
		if err := s.Plan.Validate(); err != nil {
			return fmt.Errorf("harness: %s: %v", s.Name, err)
		}
	}
	switch s.Algo {
	case AlgoMSTBuildAdaptive, AlgoMSTBuildFixed, AlgoSTBuild, AlgoGHS, AlgoFlood:
		if s.Plan != nil {
			return fmt.Errorf("harness: %s: %s takes no fault workload", s.Name, s.Algo)
		}
	case AlgoMSTRepair:
		if err := s.validateFaultWorkload(); err != nil {
			return err
		}
	case AlgoSTRepair:
		if err := s.validateFaultWorkload(); err != nil {
			return err
		}
		if s.Plan.WeightChanges != 0 {
			return fmt.Errorf("harness: %s: st-repair is unweighted, no weight changes", s.Name)
		}
	case AlgoDebugStall:
		if s.Watchdog == nil {
			return fmt.Errorf("harness: %s: debug-stall without a watchdog would hang forever", s.Name)
		}
	default:
		return fmt.Errorf("harness: %s: unknown algorithm %q", s.Name, s.Algo)
	}
	if s.Wave != 0 && s.Plan == nil {
		return fmt.Errorf("harness: %s: wave is a fault-plan knob; set plan", s.Name)
	}
	if s.Wave < 0 {
		return fmt.Errorf("harness: %s: wave=%d, want >= 0", s.Name, s.Wave)
	}
	return nil
}

// validateFaultWorkload requires a repair algorithm's non-empty plan.
func (s Spec) validateFaultWorkload() error {
	if s.Plan == nil || s.Plan.Empty() {
		return fmt.Errorf("harness: %s: repair scenario needs a non-empty fault plan", s.Name)
	}
	return nil
}
