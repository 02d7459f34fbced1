package sketch

import (
	"testing"

	"kkt/internal/race"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/hashing"
	"kkt/internal/rng"
	"kkt/internal/tree"
)

// markedPath builds a 256-node path network with every edge marked: one
// long tree, so any per-node churn in a broadcast-and-echo multiplies by
// 256 and trips the constant budgets below.
func markedPath(t *testing.T, n int) (*congest.Network, *tree.Protocol) {
	t.Helper()
	g := graph.Path(n, 1<<20, func(k int) uint64 { return uint64(k + 1) })
	nw := congest.NewNetwork(g)
	forest := make([][2]congest.NodeID, 0, n-1)
	for i := 1; i < n; i++ {
		forest = append(forest, [2]congest.NodeID{congest.NodeID(i), congest.NodeID(i + 1)})
	}
	nw.SetForest(forest)
	return nw, tree.Attach(nw)
}

// TestTestOutBroadcastAllocs pins one full TestOut broadcast-and-echo —
// 64 lanes, stride lane lookup, one-word parity echoes — at constant
// allocations over a 256-node tree.
func TestTestOutBroadcastAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	const n = 256
	nw, pr := markedPath(t, n)
	runner := NewTestOutRunner()
	h := hashing.NewOddHash(rng.New(11))
	iv := Interval{Lo: 1, Hi: 1 << 40}
	wave := func() {
		if _, err := awaitU(nw, runner.Start(pr, 1, h, iv, Lanes)); err != nil {
			t.Fatal(err)
		}
	}
	wave() // warm pools
	avg := testing.AllocsPerRun(5, wave)
	if avg > 32 {
		t.Errorf("TestOut B&E on %d nodes: %.1f allocs, budget 32 — per-node churn reintroduced?", n, avg)
	}
}

// TestHPTestOutBroadcastAllocs pins one HP-TestOut broadcast-and-echo at
// zero allocations: each node's products fill an echo block that
// recycles through the tree protocol's free lists, so a warm wave
// allocates no per-node value.
func TestHPTestOutBroadcastAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	const n = 256
	nw, pr := markedPath(t, n)
	runner := NewHPRunner()
	alphas := DrawAlphas(rng.New(13), MaxReps)
	iv := Interval{Lo: 1, Hi: 1 << 40}
	wave := func() {
		if err := await(nw, runner.Start(pr, 1, alphas, iv)); err != nil {
			t.Fatal(err)
		}
		runner.Leaving()
	}
	wave()
	avg := testing.AllocsPerRun(5, wave)
	if avg != 0 {
		t.Errorf("HP-TestOut B&E on %d nodes: %.1f allocs, want 0 — per-node churn reintroduced?", n, avg)
	}
}

// TestSurveyBroadcastAllocs pins one survey broadcast-and-echo, five
// words per echo, at zero allocations over a 256-node tree.
func TestSurveyBroadcastAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	const n = 256
	nw, pr := markedPath(t, n)
	runner := NewSurveyRunner()
	wave := func() {
		if err := await(nw, runner.Start(pr, 1)); err != nil {
			t.Fatal(err)
		}
		if got := runner.Result().Size; got != n {
			t.Errorf("survey size = %d, want %d", got, n)
		}
	}
	wave()
	avg := testing.AllocsPerRun(5, wave)
	if avg != 0 {
		t.Errorf("survey B&E on %d nodes: %.1f allocs, want 0 — per-node churn reintroduced?", n, avg)
	}
}

// TestEchoWidthsFitTree: every echo this package sends fits a tree block.
func TestEchoWidthsFitTree(t *testing.T) {
	if tree.MaxWidth < 2*MaxReps {
		t.Errorf("tree.MaxWidth %d < 2*MaxReps %d: HP-TestOut's products do not fit an echo", tree.MaxWidth, 2*MaxReps)
	}
	if tree.MaxWidth < surveyWidth {
		t.Errorf("tree.MaxWidth %d < survey width %d", tree.MaxWidth, surveyWidth)
	}
}

// TestStrideLaneMatchesSplit cross-checks the O(1) stride lane lookup
// against the materialised Split intervals: every value in the range maps
// to the unique lane that contains it, for adversarial range/lane shapes.
func TestStrideLaneMatchesSplit(t *testing.T) {
	ivs := []Interval{
		{Lo: 1, Hi: 1},
		{Lo: 1, Hi: 63},
		{Lo: 1, Hi: 64},
		{Lo: 1, Hi: 65},
		{Lo: 5, Hi: 4096},
		{Lo: 100, Hi: 101},
		{Lo: 7, Hi: 7 + 630},
	}
	for _, iv := range ivs {
		for _, n := range []int{1, 2, 63, 64} {
			lanes := iv.Split(n)
			if got := iv.NumLanes(n); got != len(lanes) {
				t.Fatalf("%+v n=%d: NumLanes=%d, Split produced %d", iv, n, got, len(lanes))
			}
			stride := iv.Stride(n)
			for v := iv.Lo; v <= iv.Hi; v++ {
				li := int((v - iv.Lo) / stride)
				if li >= len(lanes) || v < lanes[li].Lo || v > lanes[li].Hi {
					t.Fatalf("%+v n=%d: value %d -> lane %d, not contained (lanes %v)", iv, n, v, li, lanes)
				}
				if got := iv.Lane(n, li); got != lanes[li] {
					t.Fatalf("%+v n=%d: Lane(%d)=%+v, Split[%d]=%+v", iv, n, li, got, li, lanes[li])
				}
			}
		}
	}
}
