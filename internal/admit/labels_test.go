package admit_test

import (
	"fmt"
	"testing"

	"kkt/internal/admit"
	"kkt/internal/congest"
	"kkt/internal/faultplan"
	"kkt/internal/graph"
	"kkt/internal/mst"
	"kkt/internal/rng"
	"kkt/internal/spanning"
	"kkt/internal/st"
	"kkt/internal/tree"
)

// TestStormLabelsMatchFullLabelling drives fault-plan storms through the
// queue wave by wave — MSF and spanning forest, sync and async, plans with
// partitions, bursts, bridges, heals and background churn — and after
// every wave checks the maintained wave-start labels against a labelling
// built from scratch. It also requires that most updates were patches from
// the mark log, so the incremental path is what the check exercised.
func TestStormLabelsMatchFullLabelling(t *testing.T) {
	plans := []faultplan.Plan{
		{Partitions: 3, PartitionSize: 12, Heals: 8, Deletes: 6, Inserts: 6},
		{Bursts: 2, BurstRadius: 1, BridgeDeletes: 3, Heals: 6, TreeEdgeDeletes: 10},
		{TreeEdgeDeletes: 12, HubDeletes: 4, Deletes: 10, Inserts: 10, WeightChanges: 10},
	}
	for _, algo := range []string{"mst", "st"} {
		for _, async := range []bool{false, true} {
			for pi, plan := range plans {
				for seed := uint64(1); seed <= 3; seed++ {
					name := fmt.Sprintf("%s/async=%v/plan%d/seed%d", algo, async, pi, seed)
					if algo == "st" {
						plan.WeightChanges = 0
					}
					runLabelledStorm(t, name, algo, async, plan, seed)
				}
			}
		}
	}
}

func runLabelledStorm(t *testing.T, name, algo string, async bool, plan faultplan.Plan, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	g := graph.GNM(r, 160, 400, 1024, graph.UniformWeights(r.Split(), 1024))
	forest := spanning.Kruskal(g)
	if algo == "st" {
		forest = spanning.BFSForest(g)
	}
	opts := []congest.Option{congest.WithSeed(seed)}
	if async {
		opts = append(opts, congest.WithAsync(8))
	}
	nw := congest.NewNetwork(g, opts...)
	pr := tree.Attach(nw)
	pairs := make([][2]congest.NodeID, len(forest))
	for i, ei := range forest {
		e := g.Edge(ei)
		pairs[i] = [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)}
	}
	nw.SetForest(pairs)
	var l admit.Launcher
	if algo == "mst" {
		l = mst.NewStormLauncher(nw, pr, mst.DefaultRepair(seed))
	} else {
		l = st.NewStormLauncher(nw, pr, st.DefaultRepair(seed))
	}
	q := admit.NewQueue(admit.Config{Wave: 8, Seed: seed})
	q.Push(faultplan.Compile(plan, g, forest, seed)...)
	for wave := 0; q.Pending() > 0; wave++ {
		if _, err := q.RunWave(nw, l); err != nil {
			t.Fatalf("%s: wave %d: %v", name, wave, err)
		}
		if err := q.CheckLabels(nw); err != nil {
			t.Fatalf("%s: after wave %d: %v", name, wave, err)
		}
	}
	full, incremental := q.LabelUpdates()
	if full != 1 || incremental == 0 {
		t.Fatalf("%s: %d full and %d incremental label updates, want 1 full and some incremental", name, full, incremental)
	}
}
