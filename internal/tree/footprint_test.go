package tree_test

import (
	"testing"

	"kkt/internal/congest"
	"kkt/internal/findmin"
	"kkt/internal/graph"
	"kkt/internal/race"
	"kkt/internal/rng"
	"kkt/internal/tree"
)

// TestFanoutBuildFootprint runs Build MST's Borůvka loop (FindMin-C per
// fragment, until every fragment certifies an empty cut) on gnm 20k/60k
// and counts the searches the fan-out builds. A search is bound only while
// its fragment searches, so the count is the most parked at once: one in
// phase 1, whose singleton searches finish inside their first Step, and at
// most the phase-2 fragment count after it, since every fragment of two or
// more nodes parks on its survey before any message is delivered.
func TestFanoutBuildFootprint(t *testing.T) {
	if testing.Short() || race.Enabled {
		t.Skip("a 20k-node build; the count it pins is single-threaded bookkeeping")
	}
	const n, m = 20000, 60000
	r := rng.New(1)
	nw := congest.NewNetwork(graph.GNM(r, n, m, 1<<20, graph.UniformWeights(r, 1<<20)))
	pr := tree.Attach(nw)
	cfg := findmin.Defaults(findmin.Capped)
	built := 0
	fan := tree.NewFanout(pr, "mst", "findmin", func() *findmin.Machine {
		built++
		return findmin.NewMachine()
	}, func(s *findmin.Machine, phase int, leader congest.NodeID) {
		s.Reset(pr, leader, uint64(phase)<<32|uint64(leader), cfg)
	})
	var frags []int
	for phase := 1; ; phase++ {
		fan.Begin()
		elect, err := pr.ElectAll()
		if err != nil {
			t.Fatal(err)
		}
		tally, _, err := fan.Run(phase, elect.Leaders)
		if err != nil {
			t.Fatal(err)
		}
		frags = append(frags, len(elect.Leaders))
		if phase == 1 && built != 1 {
			t.Errorf("phase 1 over %d singleton fragments built %d searches, want 1", n, built)
		}
		if tally[tree.EmptyCut] == len(elect.Leaders) {
			break
		}
	}
	if len(frags) < 2 || built > frags[1] {
		t.Errorf("built %d searches, want at most the phase-2 fragment count (fragments per phase %v)", built, frags)
	}
}
