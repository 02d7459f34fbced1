package harness

import (
	"kkt/internal/admit"
	"kkt/internal/congest"
	"kkt/internal/faultplan"
	"kkt/internal/graph"
	"kkt/internal/mst"
	"kkt/internal/spanning"
	"kkt/internal/st"
	"kkt/internal/tree"
)

// runConcurrentStorm runs every repair scenario: the network is seeded
// with the reference forest (uncharged setup), the plan is compiled
// against the generated graph, and the event list drains through the
// concurrent-repair admission queue in waves. Only repair traffic is
// metered; the amortized per-repair costs divide it by the number of
// launched repair drivers.
func runConcurrentStorm(s Spec, nw *congest.Network, pr *tree.Protocol, g *graph.Graph, seed uint64, weighted bool, heapBefore uint64) (TrialMetrics, map[string]congest.KindCount, error) {
	m := TrialMetrics{Seed: seed, Shards: nw.Lanes(), GraphEdges: g.M()}

	var refForest []int
	if weighted {
		refForest = spanning.Kruskal(g)
	} else {
		refForest = spanning.BFSForest(g)
	}
	forest := make([][2]congest.NodeID, len(refForest))
	for i, ei := range refForest {
		e := g.Edge(ei)
		forest[i] = [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)}
	}
	nw.SetForest(forest)

	events := faultplan.Compile(*s.Plan, g, refForest, seed)

	// The measured section starts after setup and plan compilation.
	base := nw.Counters()
	baseTime := nw.Now()

	cfg := admit.Config{Wave: s.Wave, Seed: seed}
	var (
		stats admit.Stats
		rerr  error
	)
	if weighted {
		stats, rerr = admit.Run(nw, events, mst.NewStormLauncher(nw, pr, mst.DefaultRepair(seed)), cfg)
	} else {
		stats, rerr = admit.Run(nw, events, st.NewStormLauncher(nw, pr, st.DefaultRepair(seed)), cfg)
	}
	if rerr != nil {
		return m, nil, rerr
	}

	delta := nw.CountersSince(base)
	m.Messages, m.Bits = delta.Messages, delta.Bits
	m.Time = nw.Now() - baseTime
	m.Actions = stats.Actions
	m.Repairs = stats.Repairs
	m.RepairWaves = stats.Waves
	m.RepairRetries = stats.Retries
	if stats.Repairs > 0 {
		m.MsgsPerRepair = float64(delta.Messages) / float64(stats.Repairs)
		m.BitsPerRepair = float64(delta.Bits) / float64(stats.Repairs)
	}
	m.StagedDrops = nw.StagedDrops()
	m.AsyncConflicts = nw.AsyncConflicts()
	captureFootprint(&m, nw, heapBefore)

	// Reference check against the final (mutated) topology.
	final, marked := graphFromNetwork(nw)
	m.ForestEdges = len(marked)
	idx := forestIndices(final, marked)
	if weighted {
		m.Valid = spanning.IsMSF(final, idx) == nil
	} else {
		m.Valid = spanning.IsSpanningForest(final, idx) == nil
	}
	return m, delta.ByKind, nil
}

// runDebugStall wires a deliberate livelock — a message bouncing between
// nodes 1 and 2 forever while a task awaits a session nobody completes —
// and runs it. With the scenario's mandatory watchdog armed, Run fails
// with a structured *congest.WatchdogError; that error is the trial's
// entire point.
func runDebugStall(nw *congest.Network) error {
	kind := congest.Kind("debug.stall")
	nw.RegisterHandler(kind, func(nw *congest.Network, node *congest.NodeState, msg *congest.Message) {
		nw.Send(node.ID, msg.From, kind, msg.Session, 8, nil)
	})
	nw.SpawnStep("debug-stall", 0, 0, &stallDriver{kind: kind})
	return nw.Run()
}

// stallDriver opens a session, starts the bounce on it and awaits it.
type stallDriver struct {
	kind    congest.KindID
	started bool
}

// Step implements congest.StepDriver.
func (d *stallDriver) Step(t *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	if d.started {
		return 0, true, w.Err()
	}
	d.started = true
	nw := t.Network()
	sid := nw.NewSession(nil)
	nw.Send(1, 2, d.kind, sid, 8, nil)
	return sid, false, nil
}
