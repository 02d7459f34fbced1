package ghs

import (
	"sort"
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/rng"
	"kkt/internal/spanning"
	"kkt/internal/tree"
)

func buildAndCheck(t *testing.T, g *graph.Graph) BuildResult {
	t.Helper()
	nw := congest.NewNetwork(g)
	pr := tree.Attach(nw)
	gp := Attach(nw)
	res, err := Build(nw, pr, gp)
	if err != nil {
		t.Fatalf("GHS Build: %v", err)
	}
	idx := make([]int, 0, len(res.Forest))
	for _, e := range res.Forest {
		i := g.EdgeIndex(uint32(e[0]), uint32(e[1]))
		if i < 0 {
			t.Fatalf("marked edge {%d,%d} not in graph", e[0], e[1])
		}
		idx = append(idx, i)
	}
	sort.Ints(idx)
	if err := spanning.IsMSF(g, idx); err != nil {
		t.Fatalf("GHS result is not the MSF: %v", err)
	}
	return res
}

func TestGHSTiny(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"two nodes", graph.Path(2, 10, graph.UnitWeights())},
		{"triangle", graph.Complete(3, 10, func(k int) uint64 { return uint64(k + 1) })},
		{"K5", graph.Complete(5, 100, func(k int) uint64 { return uint64(2*k + 1) })},
		{"path", graph.Path(8, 100, func(k int) uint64 { return uint64(k + 1) })},
		{"ring", graph.Ring(7, 10, func(k int) uint64 { return uint64(k + 1) })},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			buildAndCheck(t, tt.g)
		})
	}
}

func TestGHSRandom(t *testing.T) {
	r := rng.New(2)
	for trial := 0; trial < 12; trial++ {
		n := 8 + r.Intn(40)
		maxM := n * (n - 1) / 2
		m := n - 1 + r.Intn(maxM-n+2)
		g := graph.GNM(r, n, m, 1000, graph.UniformWeights(r, 1000))
		buildAndCheck(t, g)
	}
}

func TestGHSDisconnected(t *testing.T) {
	g := graph.MustNew(6, 10)
	g.MustAddEdge(1, 2, 3)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(1, 3, 2)
	g.MustAddEdge(4, 5, 1)
	g.MustAddEdge(5, 6, 2)
	res := buildAndCheck(t, g)
	if len(res.Forest) != 4 {
		t.Errorf("forest edges = %d, want 4", len(res.Forest))
	}
}

func TestGHSDeterministic(t *testing.T) {
	r := rng.New(9)
	g := graph.GNM(r, 30, 100, 500, graph.UniformWeights(r, 500))
	r1 := buildAndCheck(t, g)
	r2 := buildAndCheck(t, g)
	if r1.Messages != r2.Messages || r1.Phases != r2.Phases {
		t.Error("GHS (deterministic) varied between runs")
	}
}

func TestGHSMessageProfile(t *testing.T) {
	// Messages must be O(m + n log n): test/status traffic is bounded by
	// ~2 messages per (edge-endpoint reject) + per-phase accepts; checks
	// the dominant O(m) term is really amortised (each edge rejected at
	// most once per endpoint over the whole run).
	r := rng.New(14)
	g := graph.Complete(40, 10000, graph.UniformWeights(r, 10000)) // m = 780
	res := buildAndCheck(t, g)
	c := countKinds(t, g)
	_ = c
	m := uint64(g.M())
	n := uint64(g.N)
	lgn := uint64(6)
	// generous constant: 4m for test/status + 8n lg n for tree traffic.
	bound := 4*m + 8*n*lgn + 4*n
	if res.Messages > bound {
		t.Errorf("GHS used %d messages, bound %d (m=%d)", res.Messages, bound, m)
	}
}

// countKinds is a placeholder for per-kind assertions; the by-kind split
// is covered by congest counters elsewhere.
func countKinds(t *testing.T, g *graph.Graph) int { return g.M() }

func TestGHSRejectCachePersists(t *testing.T) {
	// On a dense graph the number of test messages must stay ~2m, not
	// m * phases: rejected edges are never re-probed.
	r := rng.New(44)
	g := graph.Complete(24, 1000, graph.UniformWeights(r, 1000)) // m=276
	nw := congest.NewNetwork(g)
	pr := tree.Attach(nw)
	gp := Attach(nw)
	res, err := Build(nw, pr, gp)
	if err != nil {
		t.Fatal(err)
	}
	tests := nw.Counters().ByKind[KindTest.String()].Messages
	// every edge can be probed twice total in the reject direction plus
	// one accept per node per phase.
	bound := uint64(2*g.M()) + uint64(g.N*res.Phases)
	if tests > bound {
		t.Errorf("test messages = %d, bound %d", tests, bound)
	}
}

// TestGHSDenseMatchesKruskalPinned runs GHS on a dense gnm (m = n²/8, the
// density of the scaling ladder) and pins each phase's message count: the
// probe order, fixed once per build, must send exactly the tests that
// sorting the candidates afresh every phase sent.
func TestGHSDenseMatchesKruskalPinned(t *testing.T) {
	r := rng.New(7)
	g := graph.GNM(r, 128, 128*128/8, 1<<16, graph.UniformWeights(r, 1<<16))
	res := buildAndCheck(t, g)
	want := []uint64{384, 805, 950, 1420, 4356}
	if len(res.PhaseStats) != len(want) {
		t.Fatalf("%d phases, want %d", len(res.PhaseStats), len(want))
	}
	for i, ps := range res.PhaseStats {
		if ps.Messages != want[i] {
			t.Errorf("phase %d: %d messages, want %d", i+1, ps.Messages, want[i])
		}
	}
	if res.Messages != 7915 {
		t.Errorf("%d messages in total, want 7915", res.Messages)
	}
}

// TestGHSKeepsLayout builds on a sparse gnm on which Build MST would
// re-lay out node storage, and checks that GHS, which does not ask its
// fan-out for storage order (tree.Fanout.OrderStorage), leaves every node
// in its own slot.
func TestGHSKeepsLayout(t *testing.T) {
	r := rng.New(5)
	g := graph.GNM(r, 5000, 15000, 1<<20, graph.UniformWeights(r, 1<<20))
	nw := congest.NewNetwork(g)
	if _, err := Build(nw, tree.Attach(nw), Attach(nw)); err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= nw.N(); v++ {
		if s := nw.Node(congest.NodeID(v)).Slot(); s != v {
			t.Fatalf("node %d moved to slot %d", v, s)
		}
	}
}
