// Package mst implements the paper's headline algorithms for weighted
// graphs: Build MST (§3.3) — Borůvka phases where every fragment elects a
// leader and runs FindMin-C to pick its minimum outgoing edge — and the
// impromptu repair operations Delete, Insert and WeightChange (§3.2),
// which restore the minimum spanning forest after a single dynamic change
// using FindMin and tree-path searches, with no state kept between
// updates beyond the edge marks themselves.
package mst

import (
	"fmt"
	"math"

	"kkt/internal/congest"
	"kkt/internal/findmin"
	"kkt/internal/tree"
)

// PhasePolicy controls when Build stops running Borůvka phases.
type PhasePolicy int

const (
	// Adaptive stops as soon as a phase ends with every fragment
	// certifying an empty cut (the forest is maximal). The paper's
	// fixed-phase loop is an upper bound; an adaptive stop changes no
	// marks, only skips provably idle phases.
	Adaptive PhasePolicy = iota + 1
	// Fixed runs the paper's full (40c/C)·ceil(lg n) phases regardless,
	// reproducing the worst-case message count of Lemma 3.
	Fixed
)

// String implements fmt.Stringer.
func (p PhasePolicy) String() string {
	switch p {
	case Adaptive:
		return "adaptive"
	case Fixed:
		return "fixed"
	default:
		return fmt.Sprintf("PhasePolicy(%d)", int(p))
	}
}

// findMinSuccessProb is the paper's constant C: a conservative lower bound
// on the probability FindMin-C returns the minimum outgoing edge
// (Lemma 2 gives 2/3 - n^-c).
const findMinSuccessProb = 0.5

// BuildConfig tunes Build. Use DefaultBuild for the paper-faithful setup.
type BuildConfig struct {
	// Seed drives all randomness (hash draws, alpha draws).
	Seed uint64
	// C is the error exponent: Build succeeds with probability 1 - n^-C.
	C int
	// Policy picks the stopping rule.
	Policy PhasePolicy
	// FindMin configures the per-fragment search; the paper uses
	// FindMin-C inside Build MST.
	FindMin findmin.Config
}

// DefaultBuild returns the paper-faithful configuration.
func DefaultBuild(seed uint64) BuildConfig {
	return BuildConfig{
		Seed:    seed,
		C:       2,
		Policy:  Adaptive,
		FindMin: findmin.Defaults(findmin.Capped),
	}
}

// PhaseStat records one Borůvka phase.
type PhaseStat struct {
	// Fragments is the number of fragments at the start of the phase.
	Fragments int
	// Merges is the number of fragments whose FindMin-C found an edge.
	Merges int
	// Empties is the number of fragments that certified maximality.
	Empties int
	// GaveUps counts FindMin-C runs that hit their iteration cap.
	GaveUps int
	// Messages, Bits and Rounds are the phase's cost; Classes breaks it
	// down by kind class (sorted by class name).
	Messages uint64
	Bits     uint64
	Rounds   int64
	Classes  []congest.ClassCost
}

// BuildResult reports a Build run.
type BuildResult struct {
	// Forest is the final properly-marked edge set.
	Forest [][2]congest.NodeID
	// Phases has one entry per executed phase.
	Phases []PhaseStat
	// Messages, Bits and Rounds are the total cost.
	Messages uint64
	Bits     uint64
	Rounds   int64
}

// MaxPhases is the paper's phase budget (40c/C)·ceil(lg n).
func MaxPhases(n, c int) int {
	lg := math.Ceil(math.Log2(float64(n)))
	if lg < 1 {
		lg = 1
	}
	return int(math.Ceil(40 * float64(c) / findMinSuccessProb * lg))
}

// Build constructs the minimum spanning forest on nw (which must carry no
// marks) and returns the per-phase statistics. On success the marked
// forest is w.h.p. the unique MSF under composite weights.
func Build(nw *congest.Network, pr *tree.Protocol, cfg BuildConfig) (BuildResult, error) {
	if cfg.C < 1 {
		cfg.C = 1
	}
	var result BuildResult
	maxPhases := MaxPhases(nw.N(), cfg.C)
	// One FindMin-C per fragment, seeded per (phase, leader); the fan-out
	// binds a machine to a fragment only while its search runs.
	fan := tree.NewFanout(pr, "mst", "findmin", findmin.NewMachine, func(m *findmin.Machine, phase int, leader congest.NodeID) {
		m.Reset(pr, leader, fragmentSeed(cfg.Seed, phase, leader), cfg.FindMin)
	})
	fan.OrderStorage()
	for phase := 1; ; phase++ {
		if phase > maxPhases {
			if cfg.Policy == Fixed {
				break // the paper's budget is exhausted; w.h.p. done
			}
			return result, fmt.Errorf("mst: phase budget %d exhausted without convergence", maxPhases)
		}
		stat, err := runPhase(pr, phase, fan)
		if err != nil {
			return result, err
		}
		result.Phases = append(result.Phases, stat)
		if cfg.Policy == Adaptive && stat.Empties == stat.Fragments {
			break // every fragment certified maximality
		}
	}
	result.Forest = nw.MarkedEdges()
	result.Messages, result.Bits = nw.Totals()
	result.Rounds = nw.Now()
	return result, nil
}

// runPhase executes one Borůvka phase: elect leaders, then let the
// fan-out run FindMin-C per fragment and add the edges found.
func runPhase(pr *tree.Protocol, phase int, fan *tree.Fanout[*findmin.Machine]) (PhaseStat, error) {
	fan.Begin()
	elect, err := pr.ElectAll()
	if err != nil {
		return PhaseStat{}, err
	}
	if len(elect.CycleNodes) > 0 {
		return PhaseStat{}, fmt.Errorf("mst: cycle in marked subgraph at phase %d (nodes %v)", phase, elect.CycleNodes)
	}
	stat := PhaseStat{Fragments: len(elect.Leaders)}
	tally, cost, err := fan.Run(phase, elect.Leaders)
	if err != nil {
		return stat, err
	}
	stat.Merges, stat.Empties, stat.GaveUps = tally[tree.FoundEdge], tally[tree.EmptyCut], tally[tree.GaveUp]
	stat.Messages, stat.Bits, stat.Rounds = cost.Messages, cost.Bits, cost.Rounds
	stat.Classes = cost.Classes
	return stat, nil
}

// fragmentSeed seeds a fragment-leader's private random stream for one
// phase, deterministic in (seed, phase, leader).
func fragmentSeed(seed uint64, phase int, leader congest.NodeID) uint64 {
	return seed ^ uint64(phase)*0x9e3779b97f4a7c15 ^ uint64(leader)*0xc2b2ae3d27d4eb4f
}
