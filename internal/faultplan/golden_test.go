package faultplan

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"kkt/internal/graph"
	"kkt/internal/rng"
	"kkt/internal/spanning"
)

// TestCompileGolden pins the compiled event lists of a plan × graph × seed
// matrix that covers every stage, on graphs from 40 to 9000 nodes (a gnm,
// a 5000-node path and a 70×70 grid among them). The ordered hash is over
// every event's op, endpoints as emitted, weight and stage, so any change
// to targeting or to the endpoint order shows up there. The unordered hash
// writes each event's endpoints as (min, max): it pins which events the
// plan compiles, whatever order their endpoints are listed in.
func TestCompileGolden(t *testing.T) {
	type topo struct {
		name   string
		g      *graph.Graph
		forest []int
	}
	gnm := func(seed uint64, n, m int) *graph.Graph {
		r := rng.New(seed)
		return graph.GNM(r, n, m, 1024, graph.UniformWeights(r.Split(), 1024))
	}
	g40, g600, g9000 := gnm(7, 40, 120), gnm(8, 600, 1500), gnm(9, 9000, 18000)
	path := graph.Path(5000, 1024, graph.UniformWeights(rng.New(10), 1024))
	grid := graph.Grid(70, 70, 1024, graph.UniformWeights(rng.New(11), 1024))
	topos := []topo{
		{"gnm40-mst", g40, spanning.Kruskal(g40)},
		{"gnm600-mst", g600, spanning.Kruskal(g600)},
		{"gnm600-st", g600, spanning.BFSForest(g600)},
		{"gnm9000-mst", g9000, spanning.Kruskal(g9000)},
		{"path5000-mst", path, spanning.Kruskal(path)},
		{"grid70-mst", grid, spanning.Kruskal(grid)},
	}
	plans := []struct {
		name string
		p    Plan
	}{
		{"full", fullPlan()},
		{"partitions", Plan{Partitions: 6, PartitionSize: 40, Heals: 10}},
		{"bursts", Plan{Bursts: 3, BurstRadius: 2, Heals: 5}},
		{"bridges", Plan{BridgeDeletes: 10}},
		{"tree-hub", Plan{TreeEdgeDeletes: 30, HubDeletes: 10}},
		{"background", Plan{Deletes: 40, Inserts: 40, WeightChanges: 20}},
	}
	h, u := sha256.New(), sha256.New()
	events := 0
	for _, tp := range topos {
		for _, pl := range plans {
			for _, seed := range []uint64{1, 2} {
				evs := Compile(pl.p, tp.g, tp.forest, seed)
				fmt.Fprintf(h, "%s/%s/%d:%d\n", tp.name, pl.name, seed, len(evs))
				fmt.Fprintf(u, "%s/%s/%d:%d\n", tp.name, pl.name, seed, len(evs))
				for _, ev := range evs {
					fmt.Fprintf(h, "%d %d %d %d %s\n", ev.Op, ev.A, ev.B, ev.Raw, ev.Stage)
					fmt.Fprintf(u, "%d %d %d %d %s\n", ev.Op, min(ev.A, ev.B), max(ev.A, ev.B), ev.Raw, ev.Stage)
				}
				events += len(evs)
			}
		}
	}
	const (
		want          = "9dfa8d36e28cf90b31f0ac96831b82d7d2ad33ee79f62d0ecb77e9fface0ff7e"
		wantUnordered = "f262f6718acefdc3e3d51e6f2e2af75c37caa3966ae76c80e71c919fe879f316"
		wantEvents    = 7123
	)
	if events != wantEvents {
		t.Errorf("the matrix compiled %d events, want %d", events, wantEvents)
	}
	if got := hex.EncodeToString(u.Sum(nil)); got != wantUnordered {
		t.Errorf("compiled events with (min, max) endpoints hash to %s, want %s", got, wantUnordered)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("compiled events hash to %s, want %s", got, want)
	}
}
