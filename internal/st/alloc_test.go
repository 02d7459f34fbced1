package st

import (
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/race"
	"kkt/internal/rng"
	"kkt/internal/tree"
)

// membershipAllocs returns the allocations of one warm insert repair on a
// random spanning tree of n nodes. The membership broadcast-and-echo runs
// over the whole tree and finds the far endpoint in it, so the forest
// stays as it is; each measured run also deletes the new edge again (a
// free delete), so every run starts from the same forest.
func membershipAllocs(t *testing.T, n int) float64 {
	t.Helper()
	r := rng.New(uint64(n))
	g := graph.RandomTree(r, n, 1024, graph.UniformWeights(r.Split(), 100))
	var forest [][2]congest.NodeID
	for _, e := range g.Edges() {
		forest = append(forest, [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)})
	}
	// A non-edge far apart in ID to insert.
	a, b := congest.NodeID(1), congest.NodeID(n)
	for g.HasEdge(uint32(a), uint32(b)) {
		b--
	}
	nw := congest.NewNetwork(g)
	nw.SetForest(forest)
	pr := tree.Attach(nw)
	cfg := DefaultRepair(1)

	insertOnce := func() {
		rep, err := Insert(nw, pr, a, b, cfg)
		if err != nil || rep.Action != NoOp {
			t.Fatalf("insert: %v %v, want no-op", rep.Action, err)
		}
		if rep, err := Delete(nw, pr, a, b, cfg); err != nil || rep.Action != NoOp {
			t.Fatalf("delete: %v %v, want no-op", rep.Action, err)
		}
	}
	insertOnce() // warm the protocol's state pools and per-node session slots
	return testing.AllocsPerRun(10, insertOnce)
}

// TestRepairMembershipAllocs pins a warm insert repair at allocations that
// do not grow with the tree: the membership echo travels as one unboxed
// OR word, so a repair's allocations are its driver's, not its tree's.
func TestRepairMembershipAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	small, big := membershipAllocs(t, 256), membershipAllocs(t, 2048)
	t.Logf("insert: %.1f allocs at n=256, %.1f at n=2048", small, big)
	// One allocation of slack: the broadcast boxes the target's node ID,
	// which is free below 256 only.
	if big > small+1 {
		t.Errorf("allocations grow with the tree: %.1f -> %.1f (n 256 -> 2048)", small, big)
	}
}
