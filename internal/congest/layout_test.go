package congest

import (
	"fmt"
	"reflect"
	"testing"

	"kkt/internal/graph"
	"kkt/internal/race"
	"kkt/internal/rng"
)

// relayTwins is a pair of identical networks driven through the same
// operations; only the first is re-laid out. Every delivery is logged
// with its clock and payload, and hops with payload u > 0 forward u-1
// over the receiver's edge at position u mod degree, by SendUAt.
type relayTwins struct {
	nets [2]*Network
	logs [2][]string
}

var relayHop = Kind("relay.hop")

func newRelayTwins(g *graph.Graph, opts ...Option) *relayTwins {
	tw := &relayTwins{}
	for i := range tw.nets {
		nw := NewNetwork(g, opts...)
		nw.RegisterHandler(relayHop, func(nw *Network, node *NodeState, m *Message) {
			tw.logs[i] = append(tw.logs[i], fmt.Sprintf("%d>%d@%d:%d", m.From, node.ID, nw.Now(), m.U))
			if d := len(node.Edges); m.U > 0 && d > 0 {
				ei := int(m.U) % d
				nw.SendUAt(node.ID, ei, node.Edges[ei].Neighbor, relayHop, 0, 8, m.U-1)
			}
		})
		tw.nets[i] = nw
	}
	return tw
}

// both applies op to both networks.
func (tw *relayTwins) both(op func(nw *Network)) {
	for _, nw := range tw.nets {
		op(nw)
	}
}

// check compares the re-laid-out network with its twin: IDs, dense slots
// in the given order, every window (contents, capacity, FIFO cells) and
// every neighbour lookup.
func (tw *relayTwins) check(t *testing.T, order []NodeID) {
	t.Helper()
	a, b := tw.nets[0], tw.nets[1]
	n := a.N()
	for i, id := range order {
		if s := a.Node(id).Slot(); s != i+1 {
			t.Fatalf("node %d at slot %d, want %d", id, s, i+1)
		}
	}
	for s := 1; s <= n; s++ {
		ns := &a.states[s]
		if ns.Slot() != s || a.Node(ns.ID) != ns {
			t.Fatalf("slot %d holds node %d with Slot %d", s, ns.ID, ns.Slot())
		}
	}
	for v := 1; v <= n; v++ {
		na, nb := a.Node(NodeID(v)), b.Node(NodeID(v))
		if na.ID != NodeID(v) {
			t.Fatalf("Node(%d).ID = %d", v, na.ID)
		}
		if cap(na.Edges) != cap(nb.Edges) || !reflect.DeepEqual(na.Edges, nb.Edges) {
			t.Fatalf("node %d: window %v (cap %d), twin %v (cap %d)", v, na.Edges, cap(na.Edges), nb.Edges, cap(nb.Edges))
		}
		if !reflect.DeepEqual(na.staged, nb.staged) {
			t.Fatalf("node %d: staged %v, twin %v", v, na.staged, nb.staged)
		}
		if na.edgeNumBits() != nb.edgeNumBits() {
			t.Fatalf("node %d: edge-number width %d, twin %d", v, na.edgeNumBits(), nb.edgeNumBits())
		}
		for u := 1; u <= n; u++ {
			ia, ib := na.EdgeIndex(NodeID(u)), nb.EdgeIndex(NodeID(u))
			if ia != ib || (ia >= 0 && *na.EdgeTo(NodeID(u)) != *nb.EdgeTo(NodeID(u))) {
				t.Fatalf("node %d toward %d: position %d, twin %d", v, u, ia, ib)
			}
		}
	}
}

// shuffled returns a random permutation of 1..n.
func shuffled(r *rng.RNG, n int) []NodeID {
	order := make([]NodeID, n)
	for i := range order {
		order[i] = NodeID(i + 1)
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// TestRelayoutInvisible re-lays out one of two twin networks with a
// random permutation between every Run, while both carry relayed traffic,
// shrink windows with DeleteLink and stage marks across the re-layout.
// Deliveries (clock included, so the async FIFO cells), windows, lookups
// and staged marks must match the twin's exactly, and the windows must
// tile the backing array in slot order afterwards.
func TestRelayoutInvisible(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"sync", nil},
		{"async", []Option{WithAsync(6), WithSeed(11)}},
		{"async-shards", []Option{WithAsync(6), WithSeed(11), WithShards(2)}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			r := rng.New(17)
			g := randomSparseGraph(r, 48, 150)
			tw := newRelayTwins(g, mode.opts...)
			for step := 0; step < 12; step++ {
				for k := 0; k < 6; k++ {
					e := g.Edge(r.Intn(g.M()))
					u := uint64(1 + r.Intn(12))
					tw.both(func(nw *Network) {
						if nw.Node(NodeID(e.A)).EdgeTo(NodeID(e.B)) != nil {
							nw.SendU(NodeID(e.A), NodeID(e.B), relayHop, 0, 8, u)
						}
					})
				}
				if step%3 == 1 {
					e := g.Edge(r.Intn(g.M()))
					tw.both(func(nw *Network) { nw.DeleteLink(NodeID(e.A), NodeID(e.B)) })
				}
				for _, nw := range tw.nets {
					if err := nw.Run(); err != nil {
						t.Fatal(err)
					}
				}
				e := g.Edge(r.Intn(g.M()))
				tw.both(func(nw *Network) { nw.Node(NodeID(e.A)).StageMark(NodeID(e.B)) })
				order := shuffled(r, g.N)
				tw.nets[0].Relayout(order)
				if !tw.nets[0].windowsTile() {
					t.Fatalf("step %d: windows do not tile the backing array in slot order", step)
				}
				tw.check(t, order)
				tw.both(func(nw *Network) { nw.ApplyStaged() })
				tw.check(t, order)
			}
			if !reflect.DeepEqual(tw.logs[0], tw.logs[1]) {
				t.Fatalf("deliveries differ after re-layouts:\n%v\n%v", tw.logs[0], tw.logs[1])
			}
			if len(tw.logs[0]) < 100 {
				t.Fatalf("only %d deliveries", len(tw.logs[0]))
			}
		})
	}
}

// TestRelayoutAfterReallocatingInsert: an InsertLink into a full window
// reallocates it outside the backing array. A re-layout then moves only
// the states; every window stays where it is and everything observable
// matches the twin, through later traffic and re-layouts too.
func TestRelayoutAfterReallocatingInsert(t *testing.T) {
	r := rng.New(23)
	g := graph.GNM(r, 40, 100, 16, graph.UniformWeights(r, 16))
	tw := newRelayTwins(g, WithAsync(4), WithSeed(3))
	var a, b NodeID = 1, 0
	for v := NodeID(2); v <= NodeID(g.N); v++ {
		if tw.nets[0].Node(a).EdgeTo(v) == nil {
			b = v
			break
		}
	}
	tw.both(func(nw *Network) {
		if err := nw.InsertLink(a, b, 7); err != nil {
			t.Fatal(err)
		}
	})
	if tw.nets[0].windowsTile() {
		t.Fatal("an insert into a full window left the windows tiling")
	}
	windows := map[NodeID]*HalfEdge{}
	for v := 1; v <= g.N; v++ {
		if e := tw.nets[0].Node(NodeID(v)).Edges; len(e) > 0 {
			windows[NodeID(v)] = &e[0]
		}
	}
	for step := 0; step < 4; step++ {
		tw.both(func(nw *Network) { nw.SendU(a, b, relayHop, 0, 8, 9) })
		for _, nw := range tw.nets {
			if err := nw.Run(); err != nil {
				t.Fatal(err)
			}
		}
		order := shuffled(r, g.N)
		tw.nets[0].Relayout(order)
		tw.check(t, order)
		for v, first := range windows {
			if &tw.nets[0].Node(v).Edges[0] != first {
				t.Fatalf("step %d: node %d's window moved although the windows do not tile", step, v)
			}
		}
	}
	if !reflect.DeepEqual(tw.logs[0], tw.logs[1]) {
		t.Fatalf("deliveries differ:\n%v\n%v", tw.logs[0], tw.logs[1])
	}
}

// TestRelayoutRejectsNonPermutation: an order that misses or repeats a
// node, or is too short, panics before anything moves.
func TestRelayoutRejectsNonPermutation(t *testing.T) {
	g := graph.Path(4, 1, graph.UnitWeights())
	for _, order := range [][]NodeID{{1, 2, 3}, {1, 2, 2, 4}, {0, 1, 2, 3}, {1, 2, 3, 5}} {
		nw := NewNetwork(g)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Relayout(%v) did not panic", order)
				}
			}()
			nw.Relayout(order)
		}()
		for v := 1; v <= 4; v++ {
			if s := nw.Node(NodeID(v)).Slot(); s != v {
				t.Errorf("Relayout(%v) moved node %d to slot %d", order, v, s)
			}
		}
	}
}

// TestRelayoutWarmAllocs: once its scratch exists, a re-layout allocates
// nothing.
func TestRelayoutWarmAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	r := rng.New(4)
	g := graph.GNM(r, 2000, 6000, 64, graph.UniformWeights(r, 64))
	nw := NewNetwork(g)
	orders := [2][]NodeID{shuffled(r, g.N), shuffled(r, g.N)}
	i := 0
	relayout := func() {
		nw.Relayout(orders[i&1])
		i++
	}
	relayout()
	if avg := testing.AllocsPerRun(10, relayout); avg != 0 {
		t.Errorf("warm Relayout: %.1f allocs, want 0", avg)
	}
}
