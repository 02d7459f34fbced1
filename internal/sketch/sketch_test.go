package sketch

import (
	"testing"
	"testing/quick"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/hashing"
	"kkt/internal/rng"
	"kkt/internal/tree"
)

// fixture: path 1-2-3-4-5-6 (weights 10,20,30,40,50) with chords
// {1,4} w=5 and {2,5} w=25; fragment T = {1,2,3} (marked 1-2, 2-3).
// Cut(T, V\T): path edge {3,4} w=30, chord {1,4} w=5, chord {2,5} w=25.
func fixture(t *testing.T) (*congest.Network, *tree.Protocol, *graph.Graph) {
	t.Helper()
	g := graph.MustNew(6, 100)
	for i := 1; i < 6; i++ {
		g.MustAddEdge(uint32(i), uint32(i+1), uint64(10*i))
	}
	g.MustAddEdge(1, 4, 5)
	g.MustAddEdge(2, 5, 25)
	nw := congest.NewNetwork(g)
	nw.SetForest([][2]congest.NodeID{{1, 2}, {2, 3}})
	return nw, tree.Attach(nw), g
}

// await runs the network to quiescence and takes the session's error;
// the result is in the runner that started it.
func await(nw *congest.Network, sid congest.SessionID) error {
	if err := nw.Run(); err != nil {
		return err
	}
	return nw.Take(sid).Err()
}

// awaitU runs the network to quiescence and takes the session's word.
func awaitU(nw *congest.Network, sid congest.SessionID) (uint64, error) {
	if err := nw.Run(); err != nil {
		return 0, err
	}
	return nw.Take(sid).U()
}

// testOut runs one single-lane TestOut probe, the paper's TestOut(x, j, k).
func testOut(pr *tree.Protocol, root congest.NodeID, h hashing.OddHash, iv Interval) (bool, error) {
	word, err := awaitU(pr.Network(), NewTestOutRunner().Start(pr, root, h, iv, 1))
	return word != 0, err
}

// hpTestOut runs one HP-TestOut probe.
func hpTestOut(pr *tree.Protocol, root congest.NodeID, alphas []uint64, iv Interval) (bool, error) {
	h := NewHPRunner()
	if err := await(pr.Network(), h.Start(pr, root, alphas, iv)); err != nil {
		return false, err
	}
	return h.Leaving(), nil
}

func comp(g *graph.Graph, a, b uint32) uint64 {
	return g.Edge(g.EdgeIndex(a, b)).Raw<<uint(g.Layout.EdgeNumBits) | g.Layout.EdgeNum(a, b)
}

func TestSurvey(t *testing.T) {
	nw, pr, g := fixture(t)
	sr := NewSurveyRunner()
	if err := await(nw, sr.Start(pr, 1)); err != nil {
		t.Fatal(err)
	}
	s := sr.Result()
	if s.Size != 3 {
		t.Errorf("Size = %d, want 3", s.Size)
	}
	// degrees within T: node1: {2},{4} = 2; node2: {1},{3},{5} = 3;
	// node3: {2},{4} = 2 -> 7 total, 3 unmarked... node1 unmarked: {1,4};
	// node2 unmarked: {2,5}; node3 unmarked: {3,4} -> 3.
	if s.DegreeSum != 7 {
		t.Errorf("DegreeSum = %d, want 7", s.DegreeSum)
	}
	if s.UnmarkedDegreeSum != 3 {
		t.Errorf("UnmarkedDegreeSum = %d, want 3", s.UnmarkedDegreeSum)
	}
	if want := comp(g, 3, 4); s.MaxComposite != want {
		t.Errorf("MaxComposite = %d, want %d (edge {3,4})", s.MaxComposite, want)
	}
	// incident edge numbers of T: the largest is {3,4} (3 in the high bits).
	wantEdgeNum := g.Layout.EdgeNum(3, 4)
	if s.MaxEdgeNum != wantEdgeNum {
		t.Errorf("MaxEdgeNum = %d, want %d", s.MaxEdgeNum, wantEdgeNum)
	}
}

func TestIntervalSplitProperties(t *testing.T) {
	f := func(lo, span uint32, n uint8) bool {
		iv := Interval{Lo: uint64(lo), Hi: uint64(lo) + uint64(span)}
		nn := int(n%64) + 1
		parts := iv.Split(nn)
		if len(parts) == 0 || len(parts) > nn {
			return false
		}
		// contiguous cover of [Lo,Hi]
		if parts[0].Lo != iv.Lo || parts[len(parts)-1].Hi != iv.Hi {
			return false
		}
		for i := 1; i < len(parts); i++ {
			if parts[i].Lo != parts[i-1].Hi+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntervalSplitDegenerate(t *testing.T) {
	if got := (Interval{Lo: 5, Hi: 4}).Split(8); got != nil {
		t.Errorf("empty interval split = %v", got)
	}
	parts := (Interval{Lo: 7, Hi: 7}).Split(64)
	if len(parts) != 1 || parts[0] != (Interval{Lo: 7, Hi: 7}) {
		t.Errorf("singleton split = %v", parts)
	}
}

func TestTestOutEmptyCutNeverFires(t *testing.T) {
	// Mark the whole path: T spans everything, the cut is empty; chords
	// are internal and must cancel.
	g := graph.MustNew(4, 100)
	g.MustAddEdge(1, 2, 10)
	g.MustAddEdge(2, 3, 20)
	g.MustAddEdge(3, 4, 30)
	g.MustAddEdge(1, 3, 40)
	g.MustAddEdge(2, 4, 50)
	nw := congest.NewNetwork(g)
	nw.SetForest([][2]congest.NodeID{{1, 2}, {2, 3}, {3, 4}})
	pr := tree.Attach(nw)
	r := rng.New(11)
	full := Interval{Lo: 0, Hi: ^uint64(0) >> 1}
	for i := 0; i < 100; i++ {
		h := hashing.NewOddHash(r)
		got, err := testOut(pr, 2, h, full)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Fatal("TestOut fired on an empty cut")
		}
	}
}

func TestTestOutDetectsCut(t *testing.T) {
	_, pr, _ := fixture(t)
	r := rng.New(21)
	fires := 0
	const trials = 400
	full := Interval{Lo: 0, Hi: ^uint64(0) >> 1}
	for i := 0; i < trials; i++ {
		h := hashing.NewOddHash(r)
		got, err := testOut(pr, 1, h, full)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			fires++
		}
	}
	if frac := float64(fires) / trials; frac < 1.0/8 {
		t.Errorf("TestOut success rate %.3f < 1/8 on non-empty cut", frac)
	}
}

func TestTestOutIntervalFilter(t *testing.T) {
	_, pr, g := fixture(t)
	r := rng.New(31)
	// interval covering only composite weights strictly between the cut
	// edges {1,4} (raw 5) and {2,5} (raw 25): probe raw range [6,24]
	// where only internal/tree edges (10, 20) live -> never fires.
	lo := comp(g, 1, 4) + 1
	hi := comp(g, 2, 5) - 1
	for i := 0; i < 200; i++ {
		h := hashing.NewOddHash(r)
		got, err := testOut(pr, 1, h, Interval{Lo: lo, Hi: hi})
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Fatal("TestOut fired on an interval with no cut edges")
		}
	}
}

func TestTestOutLanesLocaliseCutEdges(t *testing.T) {
	nw, pr, g := fixture(t)
	r := rng.New(41)
	// Probe [comp(1,4), comp(3,4)] — spans all three cut edges — with 64
	// lanes; record which lanes ever fire and check they are exactly the
	// lanes holding cut-edge composites (eventually, over many draws).
	lo, hi := comp(g, 1, 4), comp(g, 3, 4)
	rngIv := Interval{Lo: lo, Hi: hi}
	lanes := rngIv.Split(Lanes)
	cutComposites := []uint64{comp(g, 1, 4), comp(g, 2, 5), comp(g, 3, 4)}
	wantLanes := make(map[int]bool)
	for _, c := range cutComposites {
		for li, lane := range lanes {
			if c >= lane.Lo && c <= lane.Hi {
				wantLanes[li] = true
			}
		}
	}
	gotLanes := make(map[int]bool)
	for i := 0; i < 600; i++ {
		h := hashing.NewOddHash(r)
		word, err := awaitU(nw, NewTestOutRunner().Start(pr, 1, h, rngIv, Lanes))
		if err != nil {
			t.Fatal(err)
		}
		for li := 0; li < Lanes; li++ {
			if word&(1<<uint(li)) != 0 {
				gotLanes[li] = true
			}
		}
	}
	for li := range gotLanes {
		if !wantLanes[li] {
			t.Errorf("lane %d fired but holds no cut edge", li)
		}
	}
	for li := range wantLanes {
		if !gotLanes[li] {
			t.Errorf("lane %d holds a cut edge but never fired in 600 draws", li)
		}
	}
}

func TestHPTestOutAlwaysRight(t *testing.T) {
	_, pr, g := fixture(t)
	r := rng.New(51)
	full := Interval{Lo: 0, Hi: ^uint64(0) >> 1}
	noCut := Interval{Lo: comp(g, 1, 4) + 1, Hi: comp(g, 2, 5) - 1}
	onlyLight := Interval{Lo: 0, Hi: comp(g, 1, 4)} // exactly the lightest cut edge
	for i := 0; i < 100; i++ {
		alphas := DrawAlphas(r, 2)
		got, err := hpTestOut(pr, 1, alphas, full)
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Fatal("HP-TestOut missed a non-empty cut (prob ~2^-80)")
		}
		got, err = hpTestOut(pr, 1, alphas, noCut)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Fatal("HP-TestOut fired on an empty cut interval")
		}
		got, err = hpTestOut(pr, 1, alphas, onlyLight)
		if err != nil {
			t.Fatal(err)
		}
		if !got {
			t.Fatal("HP-TestOut missed the lightest cut edge")
		}
	}
}

func TestHPTestOutWholeTreeEmptyCut(t *testing.T) {
	// spanning tree of the whole graph: no cut edges at all.
	g := graph.MustNew(5, 50)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 2)
	g.MustAddEdge(3, 4, 3)
	g.MustAddEdge(4, 5, 4)
	g.MustAddEdge(1, 5, 5)
	g.MustAddEdge(2, 4, 6)
	nw := congest.NewNetwork(g)
	nw.SetForest([][2]congest.NodeID{{1, 2}, {2, 3}, {3, 4}, {4, 5}})
	pr := tree.Attach(nw)
	r := rng.New(61)
	for i := 0; i < 50; i++ {
		got, err := hpTestOut(pr, 3, DrawAlphas(r, 1), Interval{Lo: 0, Hi: ^uint64(0) >> 1})
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Fatal("HP-TestOut fired with no cut edges")
		}
	}
}

func TestNumReps(t *testing.T) {
	if r := NumReps(1e-9, 1000); r != 1 {
		t.Errorf("tiny B: reps = %d, want 1", r) // (1000/2^61)^1 ~ 4e-16 < 1e-9
	}
	if r := NumReps(1e-30, 1<<40); r < 2 {
		t.Errorf("want >= 2 reps for eps=1e-30 with B=2^40, got %d", r)
	}
	if r := NumReps(0, 10); r != 1 {
		t.Errorf("degenerate eps: reps = %d", r)
	}
	if r := NumReps(1e-300, 1<<40); r != MaxReps {
		t.Errorf("reps should clamp at %d, got %d", MaxReps, r)
	}
}

func TestTestOutMessageCost(t *testing.T) {
	// One TestOut = one broadcast-and-echo = 2 messages per tree edge.
	nw, pr, _ := fixture(t)
	r := rng.New(71)
	before := nw.Counters()
	_, err := testOut(pr, 1, hashing.NewOddHash(r), Interval{Lo: 0, Hi: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	diff := nw.Counters().Sub(before)
	if diff.Messages != 4 { // tree {1,2,3} has 2 edges
		t.Errorf("TestOut cost %d messages, want 4", diff.Messages)
	}
}
