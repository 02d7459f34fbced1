package mst

import (
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/race"
	"kkt/internal/rng"
	"kkt/internal/tree"
)

// pathMaxAllocs returns the allocations of one warm insert repair and one
// warm weight-change repair on a random spanning tree of n nodes. Both
// run the path-max broadcast-and-echo over the whole tree and keep the
// forest: the inserted edge and the cheapened edge stay heavier than every
// tree edge. Each measured run also undoes its update (a free delete, a
// no-op weight increase), so every run starts from the same forest.
func pathMaxAllocs(t *testing.T, n int) (insert, reweight float64) {
	t.Helper()
	r := rng.New(uint64(n))
	g := graph.RandomTree(r, n, 1024, graph.UniformWeights(r.Split(), 100))
	var tree2 [][2]congest.NodeID
	for _, e := range g.Edges() {
		tree2 = append(tree2, [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)})
	}
	// Two non-edges far apart in ID: one to insert, one present but
	// unmarked to reweight.
	ia, ib := congest.NodeID(1), congest.NodeID(n)
	wa, wb := congest.NodeID(2), congest.NodeID(n-1)
	for g.HasEdge(uint32(ia), uint32(ib)) || g.HasEdge(uint32(wa), uint32(wb)) {
		ib--
		wb--
	}
	g.MustAddEdge(uint32(wa), uint32(wb), 1024)
	nw := congest.NewNetwork(g)
	nw.SetForest(tree2)
	pr := tree.Attach(nw)
	cfg := DefaultRepair(1)

	insertOnce := func() {
		rep, err := Insert(nw, pr, ia, ib, 1000, cfg)
		if err != nil || rep.Action != Kept {
			t.Fatalf("insert: %v %v, want kept", rep.Action, err)
		}
		if rep, err := Delete(nw, pr, ia, ib, cfg); err != nil || rep.Action != NoOp {
			t.Fatalf("delete: %v %v, want no-op", rep.Action, err)
		}
	}
	reweightOnce := func() {
		rep, err := WeightChange(nw, pr, wa, wb, 900, cfg)
		if err != nil || rep.Action != Kept {
			t.Fatalf("weight decrease: %v %v, want kept", rep.Action, err)
		}
		if rep, err := WeightChange(nw, pr, wa, wb, 1024, cfg); err != nil || rep.Action != NoOp {
			t.Fatalf("weight increase: %v %v, want no-op", rep.Action, err)
		}
	}
	insertOnce() // warm the protocol's state pools and per-node session slots
	reweightOnce()
	return testing.AllocsPerRun(10, insertOnce), testing.AllocsPerRun(10, reweightOnce)
}

// TestRepairPathMaxAllocs pins warm insert and weight-change repairs at
// allocations that do not grow with the tree: the path-max echo travels as
// one unboxed word and OnDown's emit is a plain value, so a repair's
// allocations are its driver's, not its tree's.
func TestRepairPathMaxAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	smallIns, smallRew := pathMaxAllocs(t, 256)
	bigIns, bigRew := pathMaxAllocs(t, 2048)
	t.Logf("insert: %.1f allocs at n=256, %.1f at n=2048; weight change: %.1f, %.1f", smallIns, bigIns, smallRew, bigRew)
	// One allocation of slack: the broadcast boxes the target's node ID,
	// which is free below 256 only.
	const slack = 1
	if bigIns > smallIns+slack || bigRew > smallRew+slack {
		t.Errorf("allocations grow with the tree: insert %.1f -> %.1f, weight change %.1f -> %.1f (n 256 -> 2048)",
			smallIns, bigIns, smallRew, bigRew)
	}
}
