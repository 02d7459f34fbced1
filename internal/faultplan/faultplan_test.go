package faultplan

import (
	"reflect"
	"testing"
	"unsafe"

	"kkt/internal/graph"
	"kkt/internal/rng"
	"kkt/internal/spanning"
)

func testGraph(t *testing.T, seed uint64, n int) (*graph.Graph, []int) {
	t.Helper()
	r := rng.New(seed)
	g := graph.GNM(r, n, 3*n, 1024, graph.UniformWeights(r.Split(), 1024))
	return g, spanning.Kruskal(g)
}

func fullPlan() Plan {
	return Plan{
		Partitions: 2, PartitionSize: 6, Heals: 4,
		Bursts: 1, BurstRadius: 1,
		BridgeDeletes: 2, TreeEdgeDeletes: 4, HubDeletes: 2,
		Deletes: 6, Inserts: 6, WeightChanges: 6,
	}
}

func TestCompileDeterministic(t *testing.T) {
	g, forest := testGraph(t, 7, 48)
	a := Compile(fullPlan(), g, forest, 99)
	b := Compile(fullPlan(), g, forest, 99)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (plan, graph, forest, seed) compiled to different event lists")
	}
	c := Compile(fullPlan(), g, forest, 100)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds compiled to identical event lists (suspicious)")
	}
	if len(a) == 0 {
		t.Fatal("full plan compiled to no events")
	}
}

// TestCompileEventsValid replays the compiled list against an independent
// topology model and checks every event is applicable in order: deletes
// hit live edges, inserts hit absent pairs with in-range weights, weight
// changes hit live edges.
func TestCompileEventsValid(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g, forest := testGraph(t, seed, 40)
		events := Compile(fullPlan(), g, forest, seed*13)
		live := make(map[uint64]bool)
		for _, e := range g.Edges() {
			live[edgeKey(e.A, e.B)] = true
		}
		for i, ev := range events {
			k := edgeKey(ev.A, ev.B)
			switch ev.Op {
			case OpDelete:
				if !live[k] {
					t.Fatalf("seed %d event %d: delete of absent edge {%d,%d}", seed, i, ev.A, ev.B)
				}
				delete(live, k)
			case OpInsert:
				if live[k] {
					t.Fatalf("seed %d event %d: insert of present edge {%d,%d}", seed, i, ev.A, ev.B)
				}
				if ev.A == ev.B || ev.Raw < 1 || ev.Raw > g.MaxRaw {
					t.Fatalf("seed %d event %d: bad insert %+v", seed, i, ev)
				}
				live[k] = true
			case OpWeightChange:
				if !live[k] {
					t.Fatalf("seed %d event %d: weight change on absent edge {%d,%d}", seed, i, ev.A, ev.B)
				}
				if ev.Raw < 1 || ev.Raw > g.MaxRaw {
					t.Fatalf("seed %d event %d: weight %d out of range", seed, i, ev.Raw)
				}
			default:
				t.Fatalf("seed %d event %d: unknown op %v", seed, i, ev.Op)
			}
			if ev.Stage == "" {
				t.Fatalf("seed %d event %d: empty stage", seed, i)
			}
		}
	}
}

// TestStageSemantics checks the stages do what they claim: partition cut
// edges reappear in heals, bridge deletes hit actual bridges, tree deletes
// hit forest edges, and the stage order is the documented one.
func TestStageSemantics(t *testing.T) {
	g, forest := testGraph(t, 3, 48)
	events := Compile(fullPlan(), g, forest, 42)

	order := map[string]int{"partition": 0, "burst": 1, "bridge": 2, "tree": 3, "hub": 4, "random": 5, "heal": 6}
	last := -1
	stageSeen := map[string]bool{}
	inForest := make(map[uint64]bool)
	for _, ei := range forest {
		e := g.Edge(ei)
		inForest[edgeKey(e.A, e.B)] = true
	}
	deleted := map[uint64]Event{}
	for i, ev := range events {
		rank, ok := order[ev.Stage]
		if !ok {
			t.Fatalf("event %d: unknown stage %q", i, ev.Stage)
		}
		if rank < last {
			t.Fatalf("event %d: stage %q after a later stage", i, ev.Stage)
		}
		last = rank
		stageSeen[ev.Stage] = true
		if ev.Op == OpDelete && (ev.Stage == "partition" || ev.Stage == "burst") {
			deleted[edgeKey(ev.A, ev.B)] = ev
		}
		switch ev.Stage {
		case "tree", "hub":
			if !inForest[edgeKey(ev.A, ev.B)] {
				t.Fatalf("event %d: %s delete of non-forest edge {%d,%d}", i, ev.Stage, ev.A, ev.B)
			}
		case "heal":
			dev, ok := deleted[edgeKey(ev.A, ev.B)]
			if !ok {
				t.Fatalf("event %d: heal of edge {%d,%d} that no partition/burst deleted", i, ev.A, ev.B)
			}
			if dev.Raw != ev.Raw {
				t.Fatalf("event %d: heal weight %d != original %d", i, ev.Raw, dev.Raw)
			}
		}
	}
	for _, st := range []string{"partition", "tree", "hub", "random", "heal"} {
		if !stageSeen[st] {
			t.Fatalf("full plan emitted no %q events", st)
		}
	}
}

// TestBridgeTargeting compiles a bridge-only plan on a graph with a known
// bridge and checks it is found.
func TestBridgeTargeting(t *testing.T) {
	// Two triangles joined by a single edge (the bridge).
	g := graph.MustNew(6, 64)
	for _, e := range [][2]uint32{{1, 2}, {2, 3}, {1, 3}, {4, 5}, {5, 6}, {4, 6}, {3, 4}} {
		g.MustAddEdge(e[0], e[1], 1)
	}
	forest := spanning.Kruskal(g)
	events := Compile(Plan{BridgeDeletes: 1}, g, forest, 5)
	if len(events) != 1 {
		t.Fatalf("got %d events, want 1", len(events))
	}
	ev := events[0]
	if ev.Op != OpDelete || ev.Stage != "bridge" {
		t.Fatalf("unexpected event %+v", ev)
	}
	if !(ev.A == 3 && ev.B == 4 || ev.A == 4 && ev.B == 3) {
		t.Fatalf("bridge delete hit {%d,%d}, want {3,4}", ev.A, ev.B)
	}
}

func TestValidateAndEmpty(t *testing.T) {
	if err := (Plan{Deletes: -1}).Validate(); err == nil {
		t.Fatal("negative count validated")
	}
	if err := (Plan{PartitionSize: maxCount + 1}).Validate(); err == nil {
		t.Fatal("partition size above maxCount validated")
	}
	if err := (Plan{Deletes: maxCount, BurstRadius: maxCount}).Validate(); err != nil {
		t.Fatalf("counts at maxCount rejected: %v", err)
	}
	if err := fullPlan().Validate(); err != nil {
		t.Fatalf("full plan rejected: %v", err)
	}
	if !(Plan{}).Empty() {
		t.Fatal("zero plan not Empty")
	}
	if fullPlan().Empty() {
		t.Fatal("full plan Empty")
	}
}

// edgeKey packs an unordered node pair as lo<<32|hi.
func edgeKey(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// TestHalfSize pins the model's adjacency entry at two words: Compile
// allocates two per edge, once per plan.
func TestHalfSize(t *testing.T) {
	if got := unsafe.Sizeof(half{}); got != 16 {
		t.Errorf("half is %d bytes, want 16", got)
	}
}
