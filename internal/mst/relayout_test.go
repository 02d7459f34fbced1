package mst

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/race"
	"kkt/internal/rng"
	"kkt/internal/spanning"
	"kkt/internal/tree"
)

// buildPin is what TestBuildRelayoutPinned pins of a build: a digest of
// the forest, the total cost, each phase's messages and a digest of every
// phase statistic (fragments, merges, messages, bits, rounds, classes).
type buildPin struct {
	Forest   string
	Messages uint64
	Bits     uint64
	Rounds   int64
	Phases   []uint64
	Stats    string
}

func digest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(v))))[:16]
}

// TestBuildRelayoutPinned builds the MSF of a sparse gnm large enough
// for the fan-out to re-lay out node storage every phase, synchronous and
// asynchronous, at one shard and two, and pins each build to the numbers
// the same builds gave before node storage could move.
func TestBuildRelayoutPinned(t *testing.T) {
	r := rng.New(1)
	g := graph.GNM(r, 5000, 15000, 1<<20, graph.UniformWeights(r, 1<<20))
	want := map[bool]buildPin{
		false: {
			Forest: "9094e4a11d3b998c", Messages: 1974598, Bits: 401836687, Rounds: 12453,
			Phases: []uint64{5000, 321826, 404244, 415831, 417960, 374743, 34994},
			Stats:  "2021c1ddcb578fa7",
		},
		true: {
			Forest: "9094e4a11d3b998c", Messages: 2033690, Bits: 414231234, Rounds: 60628,
			Phases: []uint64{5000, 321606, 399772, 430959, 416608, 424751, 34994},
			Stats:  "79de97fad4141f6f",
		},
	}
	shardCounts := []int{1, 2}
	if race.Enabled {
		// The race build checks the sharded rounds over moved storage;
		// one shard adds nothing there but time.
		shardCounts = []int{2}
	}
	for _, async := range []bool{false, true} {
		for _, shards := range shardCounts {
			opts := []congest.Option{congest.WithShards(shards), congest.WithSeed(3)}
			if async {
				opts = append(opts, congest.WithAsync(8))
			}
			nw := congest.NewNetwork(g, opts...)
			res, err := Build(nw, tree.Attach(nw), DefaultBuild(7))
			if err != nil {
				t.Fatalf("async=%v shards=%d: %v", async, shards, err)
			}
			if err := spanning.IsMSF(g, forestIndices(t, g, res.Forest)); err != nil {
				t.Fatalf("async=%v shards=%d: not the MSF: %v", async, shards, err)
			}
			got := buildPin{Forest: digest(res.Forest), Messages: res.Messages, Bits: res.Bits, Rounds: res.Rounds, Stats: digest(res.Phases)}
			for _, ph := range res.Phases {
				got.Phases = append(got.Phases, ph.Messages)
			}
			if !reflect.DeepEqual(got, want[async]) {
				t.Errorf("async=%v shards=%d: got %+v, want %+v", async, shards, got, want[async])
			}
			moved := 0
			for v := 1; v <= nw.N(); v++ {
				if nw.Node(congest.NodeID(v)).Slot() != v {
					moved++
				}
			}
			if moved < nw.N()/2 {
				t.Errorf("async=%v shards=%d: only %d of %d nodes left their first slot", async, shards, moved, nw.N())
			}
		}
	}
}
