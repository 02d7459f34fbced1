package st

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

// buildPin is what TestBuildSTKeepsLayoutPinned pins of a build: a digest of
// the forest, the total cost, each phase's messages and a digest of every
// phase statistic.
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

// TestBuildSTKeepsLayoutPinned builds a spanning forest of a sparse gnm
// on which Build MST would re-lay out node storage every phase,
// synchronous and asynchronous, at one shard and two. Build ST keeps its
// layout (it does not call tree.Fanout.OrderStorage), so every node stays
// in its first slot, and each build is pinned to the numbers the same
// builds gave before node storage could move.
func TestBuildSTKeepsLayoutPinned(t *testing.T) {
	r := rng.New(2)
	g := graph.GNM(r, 5000, 15000, 1, graph.UnitWeights())
	want := map[bool]buildPin{
		false: {
			Forest: "d2ba2484f6d72843", Messages: 1168916, Bits: 180897950, Rounds: 20615,
			Phases: []uint64{3429, 42105, 55416, 65302, 56313, 64792, 69336, 68836, 64874, 69363,
				67313, 64967, 67993, 64780, 69437, 64786, 54970, 64935, 64973, 24996},
			Stats: "202c0a945f0c67e1",
		},
		true: {
			Forest: "27c6a3526018096d", Messages: 842234, Bits: 130361854, Rounds: 71658,
			Phases: []uint64{3429, 42184, 55868, 60203, 61442, 66182, 64649, 64467, 64335, 68801,
				69744, 66537, 64570, 64827, 24996},
			Stats: "9bfeba48cecd0eed",
		},
	}
	shardCounts := []int{1, 2}
	if race.Enabled {
		// The race build checks the sharded rounds; one shard adds
		// nothing there but time.
		shardCounts = []int{2}
	}
	for _, async := range []bool{false, true} {
		for _, shards := range shardCounts {
			opts := []congest.Option{congest.WithShards(shards), congest.WithSeed(3)}
			if async {
				opts = append(opts, congest.WithAsync(8))
			}
			nw := congest.NewNetwork(g, opts...)
			pr := tree.Attach(nw)
			res, err := Build(nw, pr, Attach(nw, pr), DefaultBuild(7))
			if err != nil {
				t.Fatalf("async=%v shards=%d: %v", async, shards, err)
			}
			if err := spanning.IsSpanningForest(g, forestIndices(t, g, res.Forest)); err != nil {
				t.Fatalf("async=%v shards=%d: not a spanning forest: %v", async, shards, err)
			}
			got := buildPin{Forest: digest(res.Forest), Messages: res.Messages, Bits: res.Bits, Rounds: res.Rounds, Stats: digest(res.Phases)}
			for _, ph := range res.Phases {
				got.Phases = append(got.Phases, ph.Messages)
			}
			if !reflect.DeepEqual(got, want[async]) {
				t.Errorf("async=%v shards=%d: got %+v, want %+v", async, shards, got, want[async])
			}
			for v := 1; v <= nw.N(); v++ {
				if s := nw.Node(congest.NodeID(v)).Slot(); s != v {
					t.Fatalf("async=%v shards=%d: node %d moved to slot %d", async, shards, v, s)
				}
			}
		}
	}
}
