package mst

import (
	"sort"
	"testing"

	"kkt/internal/congest"
	"kkt/internal/findmin"
	"kkt/internal/graph"
	"kkt/internal/obsv"
	"kkt/internal/rng"
	"kkt/internal/spanning"
	"kkt/internal/tree"
)

// forestIndices converts marked endpoint pairs to edge indices of g.
func forestIndices(t *testing.T, g *graph.Graph, forest [][2]congest.NodeID) []int {
	t.Helper()
	out := make([]int, 0, len(forest))
	for _, e := range forest {
		i := g.EdgeIndex(uint32(e[0]), uint32(e[1]))
		if i < 0 {
			t.Fatalf("marked edge {%d,%d} not in graph", e[0], e[1])
		}
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

func buildAndCheck(t *testing.T, g *graph.Graph, seed uint64) BuildResult {
	t.Helper()
	nw := congest.NewNetwork(g)
	pr := tree.Attach(nw)
	res, err := Build(nw, pr, DefaultBuild(seed))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := spanning.IsMSF(g, forestIndices(t, g, res.Forest)); err != nil {
		t.Fatalf("Build result is not the MSF: %v", err)
	}
	return res
}

func TestBuildTinyGraphs(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"two nodes", graph.Path(2, 10, graph.UnitWeights())},
		{"triangle", graph.Complete(3, 10, func(k int) uint64 { return uint64(k + 1) })},
		{"path", graph.Path(6, 100, func(k int) uint64 { return uint64(7 * (k + 1)) })},
		{"star", graph.Star(7, 10, func(k int) uint64 { return uint64(k + 1) })},
		{"ring", graph.Ring(5, 10, func(k int) uint64 { return uint64(k + 1) })},
		{"K5", graph.Complete(5, 100, func(k int) uint64 { return uint64(k*3 + 1) })},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buildAndCheck(t, tt.g, 42)
		})
	}
}

func TestBuildRandomGraphs(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 12; trial++ {
		n := 8 + r.Intn(40)
		maxM := n * (n - 1) / 2
		m := n - 1 + r.Intn(maxM-n+2)
		g := graph.GNM(r, n, m, 1000, graph.UniformWeights(r, 1000))
		buildAndCheck(t, g, uint64(trial)*17+3)
	}
}

func TestBuildDuplicateRawWeights(t *testing.T) {
	// Heavy raw-weight ties force composite tie-breaking everywhere.
	r := rng.New(31)
	g := graph.GNM(r, 25, 80, 3, graph.UniformWeights(r, 3))
	buildAndCheck(t, g, 7)
}

func TestBuildDisconnectedForest(t *testing.T) {
	// Two components: Build must produce the minimum spanning forest.
	g := graph.MustNew(7, 100)
	g.MustAddEdge(1, 2, 5)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(1, 3, 9)
	g.MustAddEdge(4, 5, 2)
	g.MustAddEdge(5, 6, 8)
	g.MustAddEdge(4, 6, 3)
	g.MustAddEdge(6, 7, 1)
	buildAndCheck(t, g, 11)
}

func TestBuildGrid(t *testing.T) {
	r := rng.New(55)
	g := graph.Grid(6, 6, 500, graph.UniformWeights(r, 500))
	buildAndCheck(t, g, 5)
}

func TestBuildPhasesLogarithmic(t *testing.T) {
	r := rng.New(77)
	g := graph.GNM(r, 64, 256, 10000, graph.UniformWeights(r, 10000))
	res := buildAndCheck(t, g, 21)
	// fragments at least halve per fully-successful phase; FindMin-C
	// succeeds with constant probability, so ~2-4x lg n phases is ample.
	if len(res.Phases) > 30 {
		t.Errorf("build took %d phases on n=64", len(res.Phases))
	}
	// fragment counts must be non-increasing
	for i := 1; i < len(res.Phases); i++ {
		if res.Phases[i].Fragments > res.Phases[i-1].Fragments {
			t.Errorf("fragments grew: phase %d had %d, phase %d had %d",
				i-1, res.Phases[i-1].Fragments, i, res.Phases[i].Fragments)
		}
	}
	if res.Phases[0].Fragments != 64 {
		t.Errorf("phase 1 fragments = %d, want n", res.Phases[0].Fragments)
	}
}

func TestBuildFixedPolicyMatchesAdaptive(t *testing.T) {
	r := rng.New(13)
	g := graph.GNM(r, 12, 30, 50, graph.UniformWeights(r, 50))
	nwA := congest.NewNetwork(g)
	prA := tree.Attach(nwA)
	cfgA := DefaultBuild(3)
	resA, err := Build(nwA, prA, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	nwF := congest.NewNetwork(g)
	prF := tree.Attach(nwF)
	cfgF := DefaultBuild(3)
	cfgF.Policy = Fixed
	resF, err := Build(nwF, prF, cfgF)
	if err != nil {
		t.Fatal(err)
	}
	// Same forest either way; Fixed pays for the idle phases.
	ia, fa := forestIndices(t, g, resA.Forest), forestIndices(t, g, resF.Forest)
	if len(ia) != len(fa) {
		t.Fatalf("forests differ in size: %d vs %d", len(ia), len(fa))
	}
	for i := range ia {
		if ia[i] != fa[i] {
			t.Fatal("forests differ")
		}
	}
	if resF.Messages <= resA.Messages {
		t.Errorf("fixed policy (%d msgs) should cost more than adaptive (%d)", resF.Messages, resA.Messages)
	}
	if len(resF.Phases) != MaxPhases(g.N, cfgF.C) {
		t.Errorf("fixed policy ran %d phases, want %d", len(resF.Phases), MaxPhases(g.N, cfgF.C))
	}
}

func TestBuildDeterministicPerSeed(t *testing.T) {
	r := rng.New(8)
	g := graph.GNM(r, 20, 60, 100, graph.UniformWeights(r, 100))
	r1 := buildAndCheck(t, g, 123)
	r2 := buildAndCheck(t, g, 123)
	if r1.Messages != r2.Messages || r1.Rounds != r2.Rounds {
		t.Errorf("same seed, different costs: %d/%d vs %d/%d",
			r1.Messages, r1.Rounds, r2.Messages, r2.Rounds)
	}
}

// --- repair ---

// checkMSF asserts that the network's marked forest is the MSF of g.
func checkMSF(t *testing.T, nw *congest.Network, g *graph.Graph) {
	t.Helper()
	if err := spanning.IsMSF(g, forestIndices(t, g, nw.MarkedEdges())); err != nil {
		t.Fatalf("maintained forest is not the MSF: %v", err)
	}
}

// setup builds a graph + async network carrying its MSF.
func repairSetup(t *testing.T, seed uint64, n, m int) (*graph.Graph, *congest.Network, *tree.Protocol) {
	t.Helper()
	r := rng.New(seed)
	g := graph.GNM(r, n, m, 1000, graph.UniformWeights(r, 1000))
	nw := congest.NewNetwork(g, congest.WithAsync(8), congest.WithSeed(seed))
	pr := tree.Attach(nw)
	var forest [][2]congest.NodeID
	for _, ei := range spanning.Kruskal(g) {
		e := g.Edge(ei)
		forest = append(forest, [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)})
	}
	nw.SetForest(forest)
	return g, nw, pr
}

func TestDeleteTreeEdgeReconnects(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		g, nw, pr := repairSetup(t, uint64(trial)+1, 20, 60)
		// delete a random tree edge
		msf := spanning.Kruskal(g)
		victim := g.Edge(msf[trial%len(msf)])
		rep, err := Delete(nw, pr, congest.NodeID(victim.A), congest.NodeID(victim.B), DefaultRepair(uint64(trial)*3+1))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Action != Reconnected && rep.Action != Bridge {
			t.Fatalf("trial %d: action = %v", trial, rep.Action)
		}
		// ground truth on the graph without the edge
		g2 := rebuildWithout(t, g, victim)
		checkMSF(t, nw, g2)
		if rep.Messages == 0 && rep.Action == Reconnected {
			t.Error("reconnection cost zero messages")
		}
	}
}

// rebuildWithout clones g minus one edge.
func rebuildWithout(t *testing.T, g *graph.Graph, victim graph.Edge) *graph.Graph {
	t.Helper()
	g2 := graph.MustNew(g.N, g.MaxRaw)
	for _, e := range g.Edges() {
		if e == victim {
			continue
		}
		g2.MustAddEdge(e.A, e.B, e.Raw)
	}
	return g2
}

func TestDeleteNonTreeEdgeIsFree(t *testing.T) {
	g, nw, pr := repairSetup(t, 5, 15, 50)
	inMSF := make(map[int]bool)
	for _, ei := range spanning.Kruskal(g) {
		inMSF[ei] = true
	}
	var victim graph.Edge
	for i := range g.Edges() {
		if !inMSF[i] {
			victim = g.Edge(i)
			break
		}
	}
	rep, err := Delete(nw, pr, congest.NodeID(victim.A), congest.NodeID(victim.B), DefaultRepair(9))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != NoOp || rep.Messages != 0 {
		t.Errorf("non-tree delete: action=%v messages=%d, want no-op/0", rep.Action, rep.Messages)
	}
	checkMSF(t, nw, rebuildWithout(t, g, victim))
}

func TestDeleteBridge(t *testing.T) {
	g := graph.MustNew(4, 10)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(3, 4, 2)
	g.MustAddEdge(2, 3, 5) // bridge
	nw := congest.NewNetwork(g, congest.WithAsync(4))
	pr := tree.Attach(nw)
	nw.SetForest([][2]congest.NodeID{{1, 2}, {3, 4}, {2, 3}})
	rep, err := Delete(nw, pr, 2, 3, DefaultRepair(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != Bridge {
		t.Fatalf("action = %v, want bridge", rep.Action)
	}
	if got := len(nw.MarkedEdges()); got != 2 {
		t.Errorf("marked edges after bridge delete = %d, want 2", got)
	}
}

func TestInsertJoinsTrees(t *testing.T) {
	g := graph.MustNew(4, 10)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(3, 4, 2)
	nw := congest.NewNetwork(g, congest.WithAsync(4))
	pr := tree.Attach(nw)
	nw.SetForest([][2]congest.NodeID{{1, 2}, {3, 4}})
	rep, err := Insert(nw, pr, 2, 3, 7, DefaultRepair(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != Added {
		t.Fatalf("action = %v, want added", rep.Action)
	}
	g.MustAddEdge(2, 3, 7)
	checkMSF(t, nw, g)
}

func TestInsertSwapAndKeep(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		g, nw, pr := repairSetup(t, uint64(trial)+50, 18, 40)
		// insert a new edge between two random non-adjacent nodes
		r := rng.New(uint64(trial) + 500)
		var a, b uint32
		for {
			a = uint32(r.Intn(g.N) + 1)
			b = uint32(r.Intn(g.N) + 1)
			if a != b && !g.HasEdge(a, b) {
				break
			}
		}
		raw := r.Range(1, 1000)
		rep, err := Insert(nw, pr, congest.NodeID(a), congest.NodeID(b), raw, DefaultRepair(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Action != Swapped && rep.Action != Kept && rep.Action != Added {
			t.Fatalf("trial %d: action = %v", trial, rep.Action)
		}
		g.MustAddEdge(a, b, raw)
		checkMSF(t, nw, g)
	}
}

func TestWeightChangeAllCases(t *testing.T) {
	g, nw, pr := repairSetup(t, 123, 16, 40)
	msf := spanning.Kruskal(g)
	inMSF := make(map[int]bool)
	for _, ei := range msf {
		inMSF[ei] = true
	}
	treeEdge := g.Edge(msf[2])
	var nonTree graph.Edge
	for i := range g.Edges() {
		if !inMSF[i] {
			nonTree = g.Edge(i)
			break
		}
	}
	apply := func(e graph.Edge, raw uint64) {
		i := g.EdgeIndex(e.A, e.B)
		es := g.Edges()
		es[i].Raw = raw
	}
	// 1. increase a tree edge's weight drastically: likely swap out.
	rep, err := WeightChange(nw, pr, congest.NodeID(treeEdge.A), congest.NodeID(treeEdge.B), 1000, DefaultRepair(4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != Reconnected && rep.Action != Bridge {
		t.Fatalf("increase-on-tree action = %v", rep.Action)
	}
	apply(treeEdge, 1000)
	checkMSF(t, nw, g)
	// 2. decrease a non-tree edge to 1: likely swap in.
	rep, err = WeightChange(nw, pr, congest.NodeID(nonTree.A), congest.NodeID(nonTree.B), 1, DefaultRepair(5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != Swapped && rep.Action != Kept {
		t.Fatalf("decrease-on-nontree action = %v", rep.Action)
	}
	apply(nonTree, 1)
	checkMSF(t, nw, g)
	// 3. no-op direction: increase a (current) non-tree edge.
	var nonTree2 graph.Edge
	inMSF2 := make(map[int]bool)
	for _, ei := range spanning.Kruskal(g) {
		inMSF2[ei] = true
	}
	for i := range g.Edges() {
		if !inMSF2[i] {
			nonTree2 = g.Edge(i)
			break
		}
	}
	rep, err = WeightChange(nw, pr, congest.NodeID(nonTree2.A), congest.NodeID(nonTree2.B), nonTree2.Raw+1, DefaultRepair(6))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != NoOp || rep.Messages != 0 {
		t.Fatalf("increase-on-nontree: %v/%d msgs, want no-op/0", rep.Action, rep.Messages)
	}
	apply(nonTree2, nonTree2.Raw+1)
	checkMSF(t, nw, g)
}

// TestWeightChangeSameWeightBracketed: an unchanged weight is a no-op that,
// like every other resolved update, reaches the observer as one zero-cost
// RepairStart/RepairDone pair — so a Recorder's tally matches the action
// tally.
func TestWeightChangeSameWeightBracketed(t *testing.T) {
	g := graph.MustNew(3, 10)
	g.MustAddEdge(1, 2, 4)
	g.MustAddEdge(2, 3, 5)
	rec := obsv.NewRecorder("test")
	nw := congest.NewNetwork(g, congest.WithObserver(rec))
	pr := tree.Attach(nw)
	nw.SetForest([][2]congest.NodeID{{1, 2}, {2, 3}})
	rep, err := WeightChange(nw, pr, 1, 2, 4, DefaultRepair(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Action != NoOp || rep.Messages != 0 {
		t.Fatalf("same-weight change: %v/%d msgs, want no-op/0", rep.Action, rep.Messages)
	}
	rp := rec.Snapshot().Repairs
	if rp.Started != 1 || rp.Finished != 1 || rp.ByAction["mst.reweight/no-op"] != 1 {
		t.Fatalf("recorder saw started=%d finished=%d by-action=%v, want one mst.reweight/no-op",
			rp.Started, rp.Finished, rp.ByAction)
	}
}

func TestRepairStreamKeepsInvariant(t *testing.T) {
	// A stream of random deletes and inserts, invariant-checked after
	// each update — the dynamic-network headline.
	g, nw, pr := repairSetup(t, 777, 24, 70)
	r := rng.New(4242)
	for step := 0; step < 30; step++ {
		if r.Bool() && g.M() > g.N {
			// delete a random edge (tree or not)
			ei := r.Intn(g.M())
			e := g.Edge(ei)
			if _, err := Delete(nw, pr, congest.NodeID(e.A), congest.NodeID(e.B), DefaultRepair(uint64(step))); err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			g = rebuildWithout(t, g, e)
		} else {
			var a, b uint32
			for tries := 0; ; tries++ {
				a = uint32(r.Intn(g.N) + 1)
				b = uint32(r.Intn(g.N) + 1)
				if a != b && !g.HasEdge(a, b) {
					break
				}
				if tries > 200 {
					a = 0
					break
				}
			}
			if a == 0 {
				continue
			}
			raw := r.Range(1, 1000)
			if _, err := Insert(nw, pr, congest.NodeID(a), congest.NodeID(b), raw, DefaultRepair(uint64(step))); err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			g.MustAddEdge(a, b, raw)
		}
		checkMSF(t, nw, g)
	}
}

func TestFindMinVariantInRepair(t *testing.T) {
	// Using FindMin-C for repair gives worst-case cost but may fail;
	// verify the Failed action surfaces rather than corrupting marks.
	for trial := 0; trial < 8; trial++ {
		g, nw, pr := repairSetup(t, uint64(trial)+900, 16, 48)
		msf := spanning.Kruskal(g)
		victim := g.Edge(msf[trial%len(msf)])
		cfg := RepairConfig{Seed: uint64(trial), FindMin: findmin.Defaults(findmin.Capped)}
		rep, err := Delete(nw, pr, congest.NodeID(victim.A), congest.NodeID(victim.B), cfg)
		if err != nil {
			t.Fatal(err)
		}
		switch rep.Action {
		case Reconnected, Bridge:
			checkMSF(t, nw, rebuildWithout(t, g, victim))
		case Failed:
			// acceptable with constant probability; marks must still be
			// a sub-forest (no cycles, properly marked).
			forest := nw.MarkedEdges()
			g2 := rebuildWithout(t, g, victim)
			uf := spanning.NewUnionFind(g2.N)
			for _, e := range forest {
				if !uf.Union(uint32(e[0]), uint32(e[1])) {
					t.Fatal("failed repair left a cycle")
				}
			}
		default:
			t.Fatalf("unexpected action %v", rep.Action)
		}
	}
}
