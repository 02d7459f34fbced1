package mst

import (
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/race"
	"kkt/internal/rng"
	"kkt/internal/tree"
)

// TestShardedBuildParksFewMessages pins the engine's Message free lists
// under shards. Driver sends draw from the root's list and sharded
// deliveries recycle into the lanes', so unless the root refills from the
// lanes it allocates afresh at every phase: Build MST on gnm 20k/60k
// once parked ~528k messages at 2 shards and ~554k at 4, against 20k at
// one.
func TestShardedBuildParksFewMessages(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20k-node MST three times")
	}
	n, m := 20000, 60000
	if race.Enabled {
		// The race build checks the refill's synchronization, which a
		// tenth of the graph exercises as well, in a tenth of the time.
		n, m = 2000, 6000
	}
	r := rng.New(1)
	g := graph.GNM(r, n, m, 1<<20, graph.UniformWeights(r, 1<<20))
	parked := func(shards int) int {
		nw := congest.NewNetwork(g, congest.WithShards(shards))
		if _, err := Build(nw, tree.Attach(nw), DefaultBuild(1)); err != nil {
			t.Fatalf("Build at %d shards: %v", shards, err)
		}
		return nw.DriverStats().ParkedMessages
	}
	one := parked(1)
	for _, s := range []int{2, 4} {
		if got := parked(s); got > 2*one {
			t.Errorf("%d shards park %d messages, more than twice the %d of one shard", s, got, one)
		}
	}
}
