package harness

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"kkt/internal/congest"
	"kkt/internal/flood"
	"kkt/internal/ghs"
	"kkt/internal/graph"
	"kkt/internal/mst"
	"kkt/internal/rng"
	"kkt/internal/spanning"
	"kkt/internal/st"
	"kkt/internal/tree"
)

// trialSeed derives the seed of one trial from the base seed, the
// scenario name and the trial index (FNV-style mix + splitmix64 finalizer,
// never zero).
func trialSeed(base uint64, name string, trial int) uint64 {
	h := base ^ 0xcbf29ce484222325
	for _, b := range []byte(name) {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	h ^= (uint64(trial) + 1) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		h = 1
	}
	return h
}

// buildGraph constructs the scenario topology from the trial's stream.
// workers parallelizes generation where a generator supports it (GNM's
// chord checks); generated graphs are byte-identical at any worker count,
// so the trial's shard count doubles as the generation fan-out.
func buildGraph(s Spec, r *rng.RNG, workers int) *graph.Graph {
	w := graph.UniformWeights(r.Split(), s.MaxRaw)
	switch s.Family {
	case FamilyGNM:
		return graph.GNMWorkers(r, s.N, s.M, s.MaxRaw, w, workers)
	case FamilyRing:
		return graph.Ring(s.N, s.MaxRaw, w)
	case FamilyGrid:
		side := int(math.Sqrt(float64(s.N)))
		return graph.Grid(side, side, s.MaxRaw, w)
	case FamilyExpander:
		return graph.Expander(r, s.N, s.Degree, s.MaxRaw, w)
	case FamilyComplete:
		return graph.Complete(s.N, s.MaxRaw, w)
	case FamilyTree:
		return graph.RandomTree(r, s.N, s.MaxRaw, w)
	case FamilyPowerLaw:
		// Sequential by construction (each attachment depends on the
		// degrees the previous ones produced), so worker-count identity is
		// trivial.
		return graph.PreferentialAttachment(r, s.N, s.Degree, s.MaxRaw, w)
	case FamilyGeometric:
		return graph.RandomGeometricWorkers(r, s.N, s.Radius, s.MaxRaw, w, workers)
	case FamilyHypercube:
		// Deterministic shape; only the weight stream is seeded.
		return graph.HypercubeN(s.N, s.MaxRaw, w)
	default:
		panic(fmt.Sprintf("harness: unknown family %q", s.Family))
	}
}

// RunTrial executes one single-threaded seeded trial of the scenario; see
// RunTrialShards.
func RunTrial(spec Spec, seed uint64) (TrialMetrics, map[string]congest.KindCount, error) {
	return RunTrialShards(spec, seed, 1)
}

// RunTrialShards executes one seeded trial of the scenario on the given
// shard count, and returns its metrics plus the per-kind traffic
// breakdown. The shard count is an execution knob only — the engine's
// determinism contract guarantees identical metrics at any value — so the
// seed alone still identifies the trial. Specs must already be validated
// (registry scenarios are). Protocol panics are converted to errors so one
// bad trial cannot take down a bench sweep.
func RunTrialShards(spec Spec, seed uint64, shards int) (TrialMetrics, map[string]congest.KindCount, error) {
	return RunTrialObserved(spec, seed, shards, nil)
}

// RunTrialObserved is RunTrialShards with an optional trace observer
// attached to the trial's network (nil disables observation). The observer
// is passive — metrics and reports are byte-identical with it on or off;
// see congest.Observer.
func RunTrialObserved(spec Spec, seed uint64, shards int, obs congest.Observer) (TrialMetrics, map[string]congest.KindCount, error) {
	return RunTrialContext(nil, spec, seed, shards, obs)
}

// RunTrialContext is RunTrialObserved with a cancellation context plumbed
// into the trial's engine: once ctx is done, the trial aborts at the next
// delivery batch with a structured congest.WatchdogError instead of
// running to completion. A nil ctx disables cancellation. Cancellation is
// the one wall-clock escape hatch — a cancelled trial reports an error,
// never metrics, so it cannot perturb seeded reports.
func RunTrialContext(ctx context.Context, spec Spec, seed uint64, shards int, obs congest.Observer) (m TrialMetrics, byKind map[string]congest.KindCount, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("harness: trial panicked: %v", r)
		}
	}()
	if shards < 1 {
		shards = 1
	}
	s := spec.withDefaults()
	heapBefore := heapSysNow()
	r := rng.New(seed)
	g := buildGraph(s, r.Split(), shards)

	var opts []congest.Option
	opts = append(opts, congest.WithSeed(seed))
	if s.Sched == SchedAsync {
		opts = append(opts, congest.WithAsync(s.MaxDelay))
	}
	if shards > 1 {
		opts = append(opts, congest.WithShards(shards))
	}
	if obs != nil {
		opts = append(opts, congest.WithObserver(obs))
	}
	if s.Watchdog != nil {
		opts = append(opts, congest.WithWatchdog(congest.Watchdog{
			MaxTime:     s.Watchdog.MaxTime,
			StallTime:   s.Watchdog.StallTime,
			SessionTime: s.Watchdog.SessionTime,
		}))
	}
	if ctx != nil {
		opts = append(opts, congest.WithContext(ctx))
	}
	nw := congest.NewNetwork(g, opts...)
	pr := tree.Attach(nw)

	// Record the shard count the engine actually runs on (the partition
	// clamps to the node count), never the requested one: a fallback must
	// be visible to callers, not silently reported away.
	m = TrialMetrics{Seed: seed, Shards: nw.Lanes(), GraphEdges: g.M()}
	switch s.Algo {
	case AlgoMSTBuildAdaptive, AlgoMSTBuildFixed:
		cfg := mst.DefaultBuild(seed)
		if s.Algo == AlgoMSTBuildFixed {
			cfg.Policy = mst.Fixed
			cfg.C = 1 // the fixed budget is already worst-case; keep it affordable
		}
		res, rerr := mst.Build(nw, pr, cfg)
		if rerr != nil {
			return m, nil, rerr
		}
		m.Messages, m.Bits, m.Time = res.Messages, res.Bits, res.Rounds
		m.Phases = len(res.Phases)
		m.PhaseCosts = phaseCostsMST(res.Phases)
		m.ForestEdges = len(res.Forest)
		m.Valid = spanning.IsMSF(g, forestIndices(g, res.Forest)) == nil
	case AlgoGHS:
		gp := ghs.Attach(nw)
		res, rerr := ghs.Build(nw, pr, gp)
		if rerr != nil {
			return m, nil, rerr
		}
		m.Messages, m.Bits, m.Time = res.Messages, res.Bits, res.Rounds
		m.Phases = res.Phases
		m.PhaseCosts = phaseCostsGHS(res.PhaseStats)
		m.ForestEdges = len(res.Forest)
		m.Valid = spanning.IsMSF(g, forestIndices(g, res.Forest)) == nil
	case AlgoSTBuild:
		sp := st.Attach(nw, pr)
		res, rerr := st.Build(nw, pr, sp, st.DefaultBuild(seed))
		if rerr != nil {
			return m, nil, rerr
		}
		m.Messages, m.Bits, m.Time = res.Messages, res.Bits, res.Rounds
		m.Phases = len(res.Phases)
		m.PhaseCosts = phaseCostsST(res.Phases)
		m.ForestEdges = len(res.Forest)
		m.Valid = spanning.IsSpanningForest(g, forestIndices(g, res.Forest)) == nil
	case AlgoFlood:
		fp := flood.Attach(nw)
		res, rerr := fp.Build()
		if rerr != nil {
			return m, nil, rerr
		}
		m.Messages, m.Bits, m.Time = res.Messages, res.Bits, res.Rounds
		m.ForestEdges = len(res.Forest)
		m.Valid = spanning.IsSpanningForest(g, forestIndices(g, res.Forest)) == nil
	case AlgoMSTRepair:
		return runConcurrentStorm(s, nw, pr, g, seed, true, heapBefore)
	case AlgoSTRepair:
		return runConcurrentStorm(s, nw, pr, g, seed, false, heapBefore)
	case AlgoDebugStall:
		return m, nil, runDebugStall(nw)
	default:
		return m, nil, fmt.Errorf("harness: unknown algorithm %q", s.Algo)
	}
	m.StagedDrops = nw.StagedDrops()
	m.AsyncConflicts = nw.AsyncConflicts()
	captureFootprint(&m, nw, heapBefore)
	return m, nw.Counters().ByKind, nil
}

// phaseCostsMST/phaseCostsST/phaseCostsGHS map the protocol layers'
// per-phase statistics onto the serialized timeline.
func phaseCostsMST(phases []mst.PhaseStat) []PhaseCost {
	out := make([]PhaseCost, len(phases))
	for i, ps := range phases {
		out[i] = PhaseCost{Phase: i + 1, Fragments: ps.Fragments, Merges: ps.Merges,
			Messages: ps.Messages, Bits: ps.Bits, Rounds: ps.Rounds, Classes: ps.Classes}
	}
	return out
}

func phaseCostsST(phases []st.PhaseStat) []PhaseCost {
	out := make([]PhaseCost, len(phases))
	for i, ps := range phases {
		out[i] = PhaseCost{Phase: i + 1, Fragments: ps.Fragments, Merges: ps.Merges,
			Messages: ps.Messages, Bits: ps.Bits, Rounds: ps.Rounds, Classes: ps.Classes}
	}
	return out
}

func phaseCostsGHS(phases []ghs.PhaseStat) []PhaseCost {
	out := make([]PhaseCost, len(phases))
	for i, ps := range phases {
		out[i] = PhaseCost{Phase: i + 1, Fragments: ps.Fragments, Merges: ps.Merges,
			Messages: ps.Messages, Bits: ps.Bits, Rounds: ps.Rounds, Classes: ps.Classes}
	}
	return out
}

// heapSysNow samples the Go heap footprint (runtime.MemStats.HeapSys).
func heapSysNow() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapSys
}

// captureFootprint records the trial's driver and heap high-water marks —
// the non-serialized TrialMetrics fields gating the continuation driver
// model's memory claim. HeapSysMB is the trial's own heap growth: the
// delta from the before-trial sample, clamped at zero (a shrinking heap —
// scavenged pages returned mid-run — reports 0, not an underflowed value).
func captureFootprint(m *TrialMetrics, nw *congest.Network, heapBefore uint64) {
	ds := nw.DriverStats()
	m.PeakDriverTasks = ds.PeakTasks
	m.PeakLiveDrivers = ds.PeakLive
	if after := heapSysNow(); after > heapBefore {
		m.HeapSysMB = (after - heapBefore) >> 20
	}
}

// graphFromNetwork reconstructs a graph.Graph from the network's live
// topology (which repair storms mutate away from the generated graph) and
// returns it with the marked forest.
func graphFromNetwork(nw *congest.Network) (*graph.Graph, [][2]congest.NodeID) {
	halves := 0
	for v := 1; v <= nw.N(); v++ {
		halves += len(nw.Node(congest.NodeID(v)).Edges)
	}
	g := graph.MustNewCap(nw.N(), nw.MaxRaw(), halves/2)
	for v := 1; v <= nw.N(); v++ {
		node := nw.Node(congest.NodeID(v))
		for i := range node.Edges {
			he := &node.Edges[i]
			if uint32(he.Neighbor) > uint32(v) {
				g.MustAddEdge(uint32(v), uint32(he.Neighbor), node.Raw(he))
			}
		}
	}
	return g, nw.MarkedEdges()
}

// forestIndices maps endpoint pairs to edge indices in g; unknown edges
// map to -1 (which the spanning checks reject).
func forestIndices(g *graph.Graph, forest [][2]congest.NodeID) []int {
	idx := make([]int, len(forest))
	for i, e := range forest {
		idx[i] = g.EdgeIndex(uint32(e[0]), uint32(e[1]))
	}
	return idx
}
