package tree

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/rng"
)

// pathNet builds a network over a path 1-..-n with all edges marked.
func pathNet(t *testing.T, n int, opts ...congest.Option) (*congest.Network, *Protocol) {
	t.Helper()
	g := graph.Path(n, 1000, func(k int) uint64 { return uint64(k + 1) })
	nw := congest.NewNetwork(g, opts...)
	var forest [][2]congest.NodeID
	for i := 1; i < n; i++ {
		forest = append(forest, [2]congest.NodeID{congest.NodeID(i), congest.NodeID(i + 1)})
	}
	nw.SetForest(forest)
	return nw, Attach(nw)
}

// sumSpec aggregates the sum of node IDs over the tree in one word.
func sumSpec() *Spec {
	return &Spec{
		DownBits: 8,
		UpBits:   32,
		Local: func(node *congest.NodeState, down any, acc []uint64) {
			acc[0] = uint64(node.ID)
		},
		Fold: func(node *congest.NodeState, down any, acc []uint64, from congest.NodeID, child []uint64) {
			acc[0] += child[0]
		},
	}
}

// wideSpec echoes MaxWidth words: the node count, the ID sum, the largest
// and the smallest ID, the XOR of IDs times the broadcast factor, and the
// sum of squared IDs. Its Out is its own.
func wideSpec(factor uint64) *Spec {
	return &Spec{
		Down:     factor,
		DownBits: 8,
		UpBits:   64,
		Width:    MaxWidth,
		Out:      make([]uint64, MaxWidth),
		Local: func(node *congest.NodeState, down any, acc []uint64) {
			id := uint64(node.ID)
			acc[0], acc[1], acc[2], acc[3], acc[4], acc[5] = 1, id, id, id, id*down.(uint64), id*id
		},
		Fold: func(node *congest.NodeState, down any, acc []uint64, from congest.NodeID, child []uint64) {
			acc[0] += child[0]
			acc[1] += child[1]
			acc[2] = max(acc[2], child[2])
			acc[3] = min(acc[3], child[3])
			acc[4] ^= child[4]
			acc[5] += child[5]
		},
	}
}

// wideWant is wideSpec(factor)'s echo over the nodes lo..hi.
func wideWant(lo, hi int, factor uint64) []uint64 {
	want := []uint64{0, 0, 0, uint64(lo), 0, 0}
	for v := uint64(lo); v <= uint64(hi); v++ {
		want[0]++
		want[1] += v
		want[2] = max(want[2], v)
		want[4] ^= v * factor
		want[5] += v * v
	}
	return want
}

func TestBroadcastEchoSum(t *testing.T) {
	for _, n := range []int{2, 5, 17} {
		for _, root := range []congest.NodeID{1, congest.NodeID((n + 1) / 2), congest.NodeID(n)} {
			nw, pr := pathNet(t, n)
			got, err := await(nw, pr.StartBroadcastEcho(root, sumSpec()))
			if err != nil {
				t.Fatal(err)
			}
			want := uint64(n*(n+1)) / 2
			if got != want {
				t.Errorf("n=%d root=%d: sum = %d, want %d", n, root, got, want)
			}
			// exactly one down + one up per tree edge.
			if c := nw.Counters(); c.Messages != uint64(2*(n-1)) {
				t.Errorf("n=%d root=%d: messages = %d, want %d", n, root, c.Messages, 2*(n-1))
			}
		}
	}
}

func TestBroadcastEchoSingleton(t *testing.T) {
	g := graph.Path(3, 1, graph.UnitWeights())
	nw := congest.NewNetwork(g)
	// nothing marked: node 2 is a singleton fragment.
	pr := Attach(nw)
	got, err := await(nw, pr.StartBroadcastEcho(2, sumSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("singleton sum = %d, want 2", got)
	}
	if c := nw.Counters(); c.Messages != 0 {
		t.Errorf("singleton broadcast used %d messages", c.Messages)
	}
}

func TestBroadcastEchoRounds(t *testing.T) {
	// From an end of a path, B&E takes 2*(n-1) rounds: n-1 down, n-1 up.
	const n = 8
	nw, pr := pathNet(t, n)
	if _, err := await(nw, pr.StartBroadcastEcho(1, sumSpec())); err != nil {
		t.Fatal(err)
	}
	if nw.Now() != 2*(n-1) {
		t.Errorf("rounds = %d, want %d", nw.Now(), 2*(n-1))
	}
}

func TestBroadcastEchoAsync(t *testing.T) {
	const n = 9
	nw, pr := pathNet(t, n, congest.WithAsync(12), congest.WithSeed(7))
	got, err := await(nw, pr.StartBroadcastEcho(4, sumSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(n*(n+1)) / 2; got != want {
		t.Errorf("async sum = %d, want %d", got, want)
	}
}

func TestBroadcastEchoChildEdgeValues(t *testing.T) {
	// Max edge weight on the path from each node up to the root: at the
	// root this is the max weight in the tree. Exercises Fold's from.
	const n = 6
	nw, pr := pathNet(t, n) // weights 1..n-1 along the path
	spec := &Spec{
		DownBits: 8,
		UpBits:   64,
		Fold: func(node *congest.NodeState, down any, acc []uint64, from congest.NodeID, child []uint64) {
			acc[0] = max(acc[0], child[0], node.Raw(node.EdgeTo(from)))
		},
	}
	got, err := await(nw, pr.StartBroadcastEcho(1, spec))
	if err != nil {
		t.Fatal(err)
	}
	if got != uint64(n-1) {
		t.Errorf("max edge weight = %d, want %d", got, n-1)
	}
}

func TestBroadcastEchoOnDownEmit(t *testing.T) {
	// Node 3 forwards a markx across the unmarked chord {3,5} when the
	// broadcast reaches it — the add-edge forwarding pattern.
	g := graph.Path(5, 10, graph.UnitWeights())
	g.MustAddEdge(3, 5, 7)
	nw := congest.NewNetwork(g)
	nw.SetForest([][2]congest.NodeID{{1, 2}, {2, 3}, {3, 4}})
	pr := Attach(nw)
	spec := sumSpec()
	spec.OnDown = func(node *congest.NodeState, down any, emit Emit) {
		if node.ID == 3 {
			node.StageMark(5)
			emit.Send(5, KindMarkX, 16, nil)
		}
	}
	if _, err := await(nw, pr.StartBroadcastEcho(1, spec)); err != nil {
		t.Fatal(err)
	}
	nw.ApplyStaged()
	if !nw.Node(5).EdgeTo(3).Marked || !nw.Node(3).EdgeTo(5).Marked {
		t.Error("cross-edge mark did not propagate to both halves")
	}
	// invariant check runs inside MarkedEdges
	if got := len(nw.MarkedEdges()); got != 4 {
		t.Errorf("marked edges = %d, want 4", got)
	}
}

func TestBroadcastEchoPanicsOnCycle(t *testing.T) {
	g := graph.Ring(4, 1, graph.UnitWeights())
	nw := congest.NewNetwork(g)
	nw.SetForest([][2]congest.NodeID{{1, 2}, {2, 3}, {3, 4}, {1, 4}})
	pr := Attach(nw)
	pr.StartBroadcastEcho(1, sumSpec())
	defer func() {
		if recover() == nil {
			t.Error("B&E over a cycle should panic")
		}
	}()
	_ = nw.Run()
}

func electOn(t *testing.T, nw *congest.Network, pr *Protocol) ElectResult {
	t.Helper()
	res, err := pr.ElectAll()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestElectPathOdd(t *testing.T) {
	// The election guarantees a unique leader per fragment (one median,
	// or the higher of two adjacent medians when tokens cross) — the
	// exact node depends on message timing.
	nw, pr := pathNet(t, 5)
	res := electOn(t, nw, pr)
	if len(res.Leaders) != 1 || res.Leaders[0] < 1 || res.Leaders[0] > 5 {
		t.Errorf("leaders = %v, want exactly one in 1..5", res.Leaders)
	}
	if len(res.CycleNodes) != 0 {
		t.Errorf("unexpected cycle nodes: %v", res.CycleNodes)
	}
}

func TestElectPathEven(t *testing.T) {
	nw, pr := pathNet(t, 4)
	res := electOn(t, nw, pr)
	// medians 2 and 3; higher ID wins.
	if len(res.Leaders) != 1 || res.Leaders[0] != 3 {
		t.Errorf("leaders = %v, want [3]", res.Leaders)
	}
}

func TestElectTwoNodes(t *testing.T) {
	nw, pr := pathNet(t, 2)
	res := electOn(t, nw, pr)
	if len(res.Leaders) != 1 || res.Leaders[0] != 2 {
		t.Errorf("leaders = %v, want [2]", res.Leaders)
	}
}

func TestElectStar(t *testing.T) {
	g := graph.Star(6, 1, graph.UnitWeights())
	nw := congest.NewNetwork(g)
	var forest [][2]congest.NodeID
	for i := 2; i <= 6; i++ {
		forest = append(forest, [2]congest.NodeID{1, congest.NodeID(i)})
	}
	nw.SetForest(forest)
	pr := Attach(nw)
	res := electOn(t, nw, pr)
	if len(res.Leaders) != 1 {
		t.Errorf("leaders = %v, want exactly one", res.Leaders)
	}
}

func TestElectAllSingletons(t *testing.T) {
	g := graph.Path(4, 1, graph.UnitWeights())
	nw := congest.NewNetwork(g) // nothing marked
	pr := Attach(nw)
	res := electOn(t, nw, pr)
	if len(res.Leaders) != 4 {
		t.Errorf("leaders = %v, want all four singletons", res.Leaders)
	}
	if nw.Counters().Messages != 0 {
		t.Error("singleton election should cost nothing")
	}
}

func TestElectMultipleFragments(t *testing.T) {
	g := graph.Path(7, 1, graph.UnitWeights())
	nw := congest.NewNetwork(g)
	// fragments {1,2,3}, {4}, {5,6,7}
	nw.SetForest([][2]congest.NodeID{{1, 2}, {2, 3}, {5, 6}, {6, 7}})
	pr := Attach(nw)
	res := electOn(t, nw, pr)
	if len(res.Leaders) != 3 {
		t.Fatalf("leaders = %v, want one per fragment", res.Leaders)
	}
	fragments := [][2]congest.NodeID{{1, 3}, {4, 4}, {5, 7}}
	for i, f := range fragments {
		if res.Leaders[i] < f[0] || res.Leaders[i] > f[1] {
			t.Errorf("leader %d = %d, want in [%d,%d]", i, res.Leaders[i], f[0], f[1])
		}
	}
}

func TestElectDetectsCycle(t *testing.T) {
	// triangle 1-2-3 with a tail 3-4-5: the triangle nodes are stuck.
	g := graph.MustNew(5, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(3, 4, 1)
	g.MustAddEdge(4, 5, 1)
	nw := congest.NewNetwork(g)
	nw.SetForest([][2]congest.NodeID{{1, 2}, {2, 3}, {1, 3}, {3, 4}, {4, 5}})
	pr := Attach(nw)
	res := electOn(t, nw, pr)
	if len(res.Leaders) != 0 {
		t.Errorf("leaders on cyclic fragment: %v", res.Leaders)
	}
	if len(res.CycleNodes) != 3 {
		t.Fatalf("cycle nodes = %v, want the triangle", res.CycleNodes)
	}
	for i, want := range []congest.NodeID{1, 2, 3} {
		if res.CycleNodes[i].Node != want {
			t.Errorf("cycle node %d = %d, want %d", i, res.CycleNodes[i].Node, want)
		}
	}
	// each triangle node's cycle neighbours are the other two.
	cn := res.CycleNodes[0]
	if cn.Left != 2 || cn.Right != 3 {
		t.Errorf("node 1 cycle neighbours = %d,%d, want 2,3", cn.Left, cn.Right)
	}
}

func TestElectFullRing(t *testing.T) {
	g := graph.Ring(6, 1, graph.UnitWeights())
	nw := congest.NewNetwork(g)
	var forest [][2]congest.NodeID
	for i := 1; i < 6; i++ {
		forest = append(forest, [2]congest.NodeID{congest.NodeID(i), congest.NodeID(i + 1)})
	}
	forest = append(forest, [2]congest.NodeID{1, 6})
	nw.SetForest(forest)
	pr := Attach(nw)
	res := electOn(t, nw, pr)
	if len(res.CycleNodes) != 6 {
		t.Errorf("cycle nodes = %d, want 6", len(res.CycleNodes))
	}
	if len(res.Leaders) != 0 {
		t.Errorf("leaders = %v, want none", res.Leaders)
	}
}

func TestElectMessageCountLinear(t *testing.T) {
	// Election messages are at most one per tree edge plus one crossing.
	const n = 50
	nw, pr := pathNet(t, n)
	electOn(t, nw, pr)
	c := nw.Counters()
	if c.Messages > uint64(n) {
		t.Errorf("election used %d messages on a %d-path", c.Messages, n)
	}
}

func TestElectConcurrentWithSecondWave(t *testing.T) {
	// two consecutive waves on the same network must both work (state
	// cleanup between sessions).
	_, pr := pathNet(t, 5)
	r1, err := pr.ElectAll()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := pr.ElectAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Leaders) != 1 || len(r2.Leaders) != 1 || r1.Leaders[0] != r2.Leaders[0] {
		t.Errorf("waves disagree: %v vs %v", r1.Leaders, r2.Leaders)
	}
}

// TestBroadcastEchoOverflow runs two broadcast-and-echoes at once over
// the same marked path, rooted at its two ends, so every node holds state
// in two live sessions: the second to reach a node finds the node's slot
// taken and keeps its state in the node's session vector. Both sessions
// must still aggregate correctly, for one-word and wide echoes and under
// both schedulers.
func TestBroadcastEchoOverflow(t *testing.T) {
	const n = 9
	for _, sched := range []struct {
		name string
		opts []congest.Option
	}{
		{"sync", nil},
		{"async", []congest.Option{congest.WithAsync(12), congest.WithSeed(7)}},
	} {
		for _, wide := range []bool{false, true} {
			nw, pr := pathNet(t, n, sched.opts...)
			overflows := 0
			var specs [2]*Spec
			for i := range specs {
				specs[i] = sumSpec()
				if wide {
					specs[i] = wideSpec(uint64(i + 2))
				}
				// OnDown runs after the node claimed its state: a slot
				// stamped with another session means this one overflowed.
				specs[i].OnDown = func(node *congest.NodeState, down any, emit Emit) {
					if pr.slots[node.ID].sid != emit.sid {
						overflows++
					}
				}
			}
			sids := [2]congest.SessionID{pr.StartBroadcastEcho(1, specs[0]), pr.StartBroadcastEcho(n, specs[1])}
			for i, sid := range sids {
				got, err := await(nw, sid)
				if err != nil {
					t.Fatal(err)
				}
				if !wide {
					if want := uint64(n*(n+1)) / 2; got != want {
						t.Errorf("%s: session %d sum = %d, want %d", sched.name, i, got, want)
					}
				} else if want := wideWant(1, n, uint64(i+2)); !slices.Equal(specs[i].Out, want) || got != want[0] {
					t.Errorf("%s: wide session %d = %d %v, want %v", sched.name, i, got, specs[i].Out, want)
				}
			}
			if overflows == 0 {
				t.Errorf("%s wide=%v: no node held two sessions; the overflow path went untested", sched.name, wide)
			}
			for v := 1; v <= n; v++ {
				node := nw.Node(congest.NodeID(v))
				if pr.slots[v].sid != 0 || node.SessionState(sids[0]) != nil || node.SessionState(sids[1]) != nil {
					t.Fatalf("%s wide=%v: node %d kept broadcast state after both sessions ended", sched.name, wide, v)
				}
			}
		}
	}
}

// TestBroadcastEchoStatePanics pins the tree-discipline panics on both
// state homes, the slot and the overflow: a second broadcast in a session
// the node already holds, and an echo in a session it holds no state for.
func TestBroadcastEchoStatePanics(t *testing.T) {
	nw, pr := pathNet(t, 3)
	spec := sumSpec()
	var sids [3]congest.SessionID
	for i := range sids {
		sids[i] = nw.NewSession(nil)
		pr.setSpec(sids[i], spec)
	}
	node := nw.Node(2)
	pr.claimBE(node, sids[0], 1) // the slot
	pr.claimBE(node, sids[1], 1) // overflow
	mustPanic := func(what, substr string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			if s, _ := r.(string); !strings.Contains(s, substr) {
				t.Errorf("%s: panic %v, want one containing %q", what, r, substr)
			}
		}()
		f()
	}
	for i, sid := range sids[:2] {
		mustPanic(fmt.Sprintf("second broadcast, session %d", i), "second broadcast", func() {
			pr.onDown(nw, node, &congest.Message{From: 3, To: 2, Kind: KindDown, Session: sid})
		})
	}
	up := func(sid congest.SessionID) func() {
		return func() { pr.onUp(nw, node, &congest.Message{From: 3, To: 2, Kind: KindUp, Session: sid}) }
	}
	mustPanic("echo in a session without state", "echo without broadcast state", up(sids[2]))
	pr.releaseBE(node, sids[1])
	mustPanic("echo after the overflow state was released", "echo without broadcast state", up(sids[1]))
	pr.releaseBE(node, sids[0])
	mustPanic("echo after the slot was released", "echo without broadcast state", up(sids[0]))
}

// await runs the network to quiescence and takes the session's word.
func await(nw *congest.Network, sid congest.SessionID) (uint64, error) {
	if err := nw.Run(); err != nil {
		return 0, err
	}
	return nw.Take(sid).U()
}

// randomTreeNet builds a network over a random recursive spanning tree of
// n nodes, every edge marked.
func randomTreeNet(t *testing.T, n int, opts ...congest.Option) (*congest.Network, *Protocol) {
	t.Helper()
	r := rng.New(9)
	g := graph.MustNew(n, 1024)
	forest := make([][2]congest.NodeID, 0, n-1)
	for v := 2; v <= n; v++ {
		u := 1 + r.Intn(v-1)
		g.MustAddEdge(uint32(u), uint32(v), 1+uint64(r.Intn(1024)))
		forest = append(forest, [2]congest.NodeID{congest.NodeID(u), congest.NodeID(v)})
	}
	nw := congest.NewNetwork(g, opts...)
	nw.SetForest(forest)
	return nw, Attach(nw)
}

// TestBroadcastEchoWide runs a MaxWidth-word echo over a random tree and
// checks that every word lands in Out, the session's word is the first,
// and the message count is one down and one up per edge, under the sync
// and async schedulers and on two shards.
func TestBroadcastEchoWide(t *testing.T) {
	const n = 2000 // the widest rounds carry enough messages to shard
	want := wideWant(1, n, 5)
	for _, sched := range []struct {
		name string
		opts []congest.Option
	}{
		{"sync", nil},
		{"async", []congest.Option{congest.WithAsync(12), congest.WithSeed(7)}},
		{"shards2", []congest.Option{congest.WithShards(2)}},
	} {
		nw, pr := randomTreeNet(t, n, sched.opts...)
		spec := wideSpec(5)
		got, err := await(nw, pr.StartBroadcastEcho(17, spec))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(spec.Out, want) || got != want[0] {
			t.Errorf("%s: echo %d %v, want %v", sched.name, got, spec.Out, want)
		}
		if c := nw.Counters(); c.Messages != 2*(n-1) {
			t.Errorf("%s: messages = %d, want %d", sched.name, c.Messages, 2*(n-1))
		}
	}
}

// TestBroadcastEchoWideSingleton: a root with no marked edges fills Out
// from its own Local and sends nothing.
func TestBroadcastEchoWideSingleton(t *testing.T) {
	nw := congest.NewNetwork(graph.Path(3, 1, graph.UnitWeights()))
	pr := Attach(nw)
	spec := wideSpec(4)
	if _, err := await(nw, pr.StartBroadcastEcho(2, spec)); err != nil {
		t.Fatal(err)
	}
	if want := wideWant(2, 2, 4); !slices.Equal(spec.Out, want) {
		t.Errorf("singleton echo = %v, want %v", spec.Out, want)
	}
	if c := nw.Counters(); c.Messages != 0 {
		t.Errorf("singleton broadcast used %d messages", c.Messages)
	}
}

// TestBroadcastEchoWideConcurrent runs two wide sessions at once on two
// fragments, each spec with its own Out: neither result leaks into the
// other.
func TestBroadcastEchoWideConcurrent(t *testing.T) {
	g := graph.Path(8, 1, graph.UnitWeights())
	nw := congest.NewNetwork(g, congest.WithAsync(9), congest.WithSeed(3))
	nw.SetForest([][2]congest.NodeID{{1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}, {7, 8}})
	pr := Attach(nw)
	a, b := wideSpec(3), wideSpec(11)
	sa, sb := pr.StartBroadcastEcho(2, a), pr.StartBroadcastEcho(8, b)
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	for _, sid := range []congest.SessionID{sa, sb} {
		if err := nw.Take(sid).Err(); err != nil {
			t.Fatal(err)
		}
	}
	if want := wideWant(1, 3, 3); !slices.Equal(a.Out, want) {
		t.Errorf("fragment {1..3}: %v, want %v", a.Out, want)
	}
	if want := wideWant(4, 8, 11); !slices.Equal(b.Out, want) {
		t.Errorf("fragment {4..8}: %v, want %v", b.Out, want)
	}
}

// TestBroadcastEchoWidthPanics: a spec wider than MaxWidth, or one whose
// Out cannot hold its words, is refused before any message is sent.
func TestBroadcastEchoWidthPanics(t *testing.T) {
	for name, spec := range map[string]*Spec{
		"too wide":  {Width: MaxWidth + 1, Out: make([]uint64, MaxWidth+1)},
		"short Out": {Width: 3, Out: make([]uint64, 2)},
		"no Out":    {Width: 2},
		"negative":  {Width: -1},
	} {
		func() {
			nw, pr := pathNet(t, 3)
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "Spec.Width") {
					t.Errorf("%s: panic %q, want a Spec.Width panic", name, r)
				}
				if c := nw.Counters(); c.Messages != 0 {
					t.Errorf("%s: %d messages sent", name, c.Messages)
				}
			}()
			pr.StartBroadcastEcho(1, spec)
		}()
	}
}

// TestBeSlotSize pins a node's broadcast-and-echo slot at 40 bytes: a
// one-word accumulator and a block pointer, nothing per echo lane.
func TestBeSlotSize(t *testing.T) {
	if got := unsafe.Sizeof(beSlot{}); got != 40 {
		t.Errorf("beSlot is %d bytes, want 40", got)
	}
}

// TestWideEchoBlocksBalanced repeats a wide echo over a random tree on two
// shards. Blocks return to the lane that folds them, so without the
// driver-side balancing one lane's list grows every wave while the other
// keeps allocating; with it, the blocks ever made stay within the most one
// wave holds at once, one per node.
func TestWideEchoBlocksBalanced(t *testing.T) {
	const n, waves = 2000, 100 // the widest rounds carry enough messages to shard
	nw, pr := randomTreeNet(t, n, congest.WithShards(2))
	spec := wideSpec(1)
	for i := 0; i < waves; i++ {
		if _, err := await(nw, pr.StartBroadcastEcho(17, spec)); err != nil {
			t.Fatal(err)
		}
	}
	made := 0
	for _, free := range pr.blkFree {
		made += len(free)
	}
	if made > n {
		t.Errorf("%d waves made %d echo blocks, want at most %d", waves, made, n)
	}
}
