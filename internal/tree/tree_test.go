package tree

import (
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
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

// sumSpec aggregates the sum of node IDs over the tree.
func sumSpec() *Spec {
	return &Spec{
		DownBits: 8,
		UpBits:   32,
		Local: func(node *congest.NodeState, down any) any {
			return uint64(node.ID)
		},
		Combine: func(node *congest.NodeState, down any, local any, children []ChildEcho) any {
			total := local.(uint64)
			for _, c := range children {
				total += c.Value.(uint64)
			}
			return total
		},
	}
}

func TestBroadcastEchoSum(t *testing.T) {
	for _, n := range []int{2, 5, 17} {
		for _, root := range []congest.NodeID{1, congest.NodeID((n + 1) / 2), congest.NodeID(n)} {
			nw, pr := pathNet(t, n)
			var got uint64
			nw.Spawn("be", func(p *congest.Proc) error {
				v, err := pr.BroadcastEcho(p, root, sumSpec())
				if err != nil {
					return err
				}
				got = v.(uint64)
				return nil
			})
			if err := nw.Run(); err != nil {
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
	var got uint64
	nw.Spawn("be", func(p *congest.Proc) error {
		v, err := pr.BroadcastEcho(p, 2, sumSpec())
		if err != nil {
			return err
		}
		got = v.(uint64)
		return nil
	})
	if err := nw.Run(); err != nil {
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
	nw.Spawn("be", func(p *congest.Proc) error {
		_, err := pr.BroadcastEcho(p, 1, sumSpec())
		return err
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if nw.Now() != 2*(n-1) {
		t.Errorf("rounds = %d, want %d", nw.Now(), 2*(n-1))
	}
}

func TestBroadcastEchoAsync(t *testing.T) {
	const n = 9
	nw, pr := pathNet(t, n, congest.WithAsync(12), congest.WithSeed(7))
	var got uint64
	nw.Spawn("be", func(p *congest.Proc) error {
		v, err := pr.BroadcastEcho(p, 4, sumSpec())
		if err != nil {
			return err
		}
		got = v.(uint64)
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if want := uint64(n*(n+1)) / 2; got != want {
		t.Errorf("async sum = %d, want %d", got, want)
	}
}

func TestBroadcastEchoChildEdgeValues(t *testing.T) {
	// Max edge weight on the path from each node up to the root: at the
	// root this is the max weight in the tree. Exercises ChildEcho.From.
	const n = 6
	nw, pr := pathNet(t, n) // weights 1..n-1 along the path
	spec := &Spec{
		DownBits: 8,
		UpBits:   64,
		Combine: func(node *congest.NodeState, down, local any, children []ChildEcho) any {
			var best uint64
			for _, c := range children {
				if raw := node.EdgeTo(c.From).Raw; raw > best {
					best = raw
				}
				if v := c.Value.(uint64); v > best {
					best = v
				}
			}
			return best
		},
	}
	var got uint64
	nw.Spawn("be", func(p *congest.Proc) error {
		v, err := pr.BroadcastEcho(p, 1, spec)
		if err != nil {
			return err
		}
		got = v.(uint64)
		return nil
	})
	if err := nw.Run(); err != nil {
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
			emit(5, KindMarkX, 16, nil)
		}
	}
	nw.Spawn("be", func(p *congest.Proc) error {
		if _, err := pr.BroadcastEcho(p, 1, spec); err != nil {
			return err
		}
		p.AwaitQuiescence()
		nw.ApplyStaged()
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
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
	nw.Spawn("be", func(p *congest.Proc) error {
		_, err := pr.BroadcastEcho(p, 1, sumSpec())
		return err
	})
	defer func() {
		if recover() == nil {
			t.Error("B&E over a cycle should panic")
		}
	}()
	_ = nw.Run()
}

func electOn(t *testing.T, nw *congest.Network, pr *Protocol) ElectResult {
	t.Helper()
	var res ElectResult
	nw.Spawn("elect", func(p *congest.Proc) error {
		r, err := pr.ElectAll(p)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	if err := nw.Run(); err != nil {
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
	nw, pr := pathNet(t, 5)
	nw.Spawn("double", func(p *congest.Proc) error {
		r1, err := pr.ElectAll(p)
		if err != nil {
			return err
		}
		r2, err := pr.ElectAll(p)
		if err != nil {
			return err
		}
		if len(r1.Leaders) != 1 || len(r2.Leaders) != 1 || r1.Leaders[0] != r2.Leaders[0] {
			t.Errorf("waves disagree: %v vs %v", r1.Leaders, r2.Leaders)
		}
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
}
