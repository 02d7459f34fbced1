package congest

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"

	"kkt/internal/graph"
	"kkt/internal/rng"
)

// buildNet returns a network over a path 1-2-...-n with unit weights.
func buildNet(t *testing.T, n int, opts ...Option) *Network {
	t.Helper()
	g := graph.Path(n, 1, graph.UnitWeights())
	return NewNetwork(g, opts...)
}

func TestPingPong(t *testing.T) {
	nw := buildNet(t, 2)
	var sid SessionID
	nw.RegisterHandler(Kind("ping"), func(nw *Network, node *NodeState, msg *Message) {
		nw.Send(node.ID, msg.From, Kind("pong"), msg.Session, 8, "hi back")
	})
	nw.RegisterHandler(Kind("pong"), func(nw *Network, node *NodeState, msg *Message) {
		nw.CompleteSession(msg.Session, msg.Payload, nil)
	})
	sid = nw.NewSession(nil)
	nw.Send(1, 2, Kind("ping"), sid, 8, "hi")
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	result, err := nw.Take(sid).Value()
	if err != nil {
		t.Fatal(err)
	}
	if result != "hi back" {
		t.Errorf("result = %v", result)
	}
	c := nw.Counters()
	if c.Messages != 2 {
		t.Errorf("messages = %d, want 2", c.Messages)
	}
	if c.ByKind["ping"].Messages != 1 || c.ByKind["pong"].Messages != 1 {
		t.Errorf("per-kind counts wrong: %v", c.ByKind)
	}
	if c.Bits != 2*(8+FramingBits) {
		t.Errorf("bits = %d, want %d", c.Bits, 2*(8+FramingBits))
	}
	if nw.Now() != 2 { // ping delivered round 1, pong round 2
		t.Errorf("rounds = %d, want 2", nw.Now())
	}
}

func TestSyncChainTakesOneRoundPerHop(t *testing.T) {
	const n = 10
	nw := buildNet(t, n)
	nw.RegisterHandler(Kind("fwd"), func(nw *Network, node *NodeState, msg *Message) {
		next := node.ID + 1
		if int(next) > nw.N() {
			nw.CompleteSession(msg.Session, nil, nil)
			return
		}
		nw.Send(node.ID, next, Kind("fwd"), msg.Session, 8, nil)
	})
	sid := nw.NewSession(nil)
	nw.Send(1, 2, Kind("fwd"), sid, 8, nil)
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Take(sid).Err(); err != nil {
		t.Fatal(err)
	}
	if nw.Now() != n-1 {
		t.Errorf("rounds = %d, want %d", nw.Now(), n-1)
	}
	if got := nw.Counters().Messages; got != n-1 {
		t.Errorf("messages = %d, want %d", got, n-1)
	}
}

func TestSendToNonNeighborPanics(t *testing.T) {
	nw := buildNet(t, 3)
	nw.RegisterHandler(Kind("x"), func(*Network, *NodeState, *Message) {})
	defer func() {
		if recover() == nil {
			t.Error("send 1->3 on a path should panic")
		}
	}()
	nw.Send(1, 3, Kind("x"), 0, 8, nil)
}

func TestBudgetViolationPanics(t *testing.T) {
	nw := buildNet(t, 2)
	nw.RegisterHandler(Kind("fat"), func(*Network, *NodeState, *Message) {})
	defer func() {
		if recover() == nil {
			t.Error("oversized message should panic")
		}
	}()
	nw.Send(1, 2, Kind("fat"), 0, 100000, nil)
}

func TestUnregisteredKindPanics(t *testing.T) {
	nw := buildNet(t, 2)
	defer func() {
		if recover() == nil {
			t.Error("send of unregistered kind should panic")
		}
	}()
	nw.Send(1, 2, Kind("nope"), 0, 8, nil)
}

func TestDuplicateHandlerPanics(t *testing.T) {
	nw := buildNet(t, 2)
	nw.RegisterHandler(Kind("k"), func(*Network, *NodeState, *Message) {})
	defer func() {
		if recover() == nil {
			t.Error("duplicate handler should panic")
		}
	}()
	nw.RegisterHandler(Kind("k"), func(*Network, *NodeState, *Message) {})
}

// TestRunReturnsAtQuiescence: Run is the controllers' phase barrier, so it
// returns only once no message is in flight, after firing the quiescence
// sessions; a session nobody completed stays open and cannot be taken.
func TestRunReturnsAtQuiescence(t *testing.T) {
	nw := buildNet(t, 3)
	delivered := 0
	nw.RegisterHandler(Kind("slow"), func(nw *Network, node *NodeState, msg *Message) {
		delivered++
		if n := node.ID + 1; int(n) <= nw.N() {
			nw.Send(node.ID, n, Kind("slow"), msg.Session, 8, nil)
		}
	})
	sid := nw.NewSession(nil)
	nw.Send(1, 2, Kind("slow"), sid, 8, nil)
	firedAt := -1
	q := nw.NewSession(func() (any, error) {
		firedAt = delivered
		return nil, nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 2 || firedAt != 2 {
		t.Errorf("barrier released early: delivered = %d, quiescence fired after %d", delivered, firedAt)
	}
	if err := nw.Take(q).Err(); err != nil {
		t.Errorf("quiescence session: %v", err)
	}
	if err := nw.Take(sid).Err(); err == nil {
		t.Error("took a session nobody completed")
	}
	nw.CompleteSession(sid, nil, nil)
	if err := nw.Take(sid).Err(); err != nil {
		t.Error(err)
	}
	if open := nw.DriverStats().OpenSessions; open != 0 {
		t.Errorf("%d sessions left open", open)
	}
}

func TestAsyncDeliversEverythingFIFO(t *testing.T) {
	nw := buildNet(t, 2, WithAsync(16), WithSeed(99))
	var got []int
	nw.RegisterHandler(Kind("seq"), func(nw *Network, node *NodeState, msg *Message) {
		got = append(got, msg.Payload.(int))
		if len(got) == 10 {
			nw.CompleteSession(msg.Session, nil, nil)
		}
	})
	sid := nw.NewSession(nil)
	for i := 0; i < 10; i++ {
		nw.Send(1, 2, Kind("seq"), sid, 8, i)
	}
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Take(sid).Err(); err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
	if nw.Now() <= 0 {
		t.Error("virtual time did not advance")
	}
}

func TestAsyncDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) int64 {
		g := graph.Ring(8, 1, graph.UnitWeights())
		nw := NewNetwork(g, WithAsync(10), WithSeed(seed))
		count := 0
		nw.RegisterHandler(Kind("gossip"), func(nw *Network, node *NodeState, msg *Message) {
			count++
			if count >= 30 {
				if count == 30 {
					nw.CompleteSession(msg.Session, nil, nil)
				}
				return
			}
			for _, he := range node.Edges {
				nw.Send(node.ID, he.Neighbor, Kind("gossip"), msg.Session, 8, nil)
			}
		})
		sid := nw.NewSession(nil)
		nw.Send(1, 2, Kind("gossip"), sid, 8, nil)
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		if err := nw.Take(sid).Err(); err != nil {
			t.Fatal(err)
		}
		return nw.Now()
	}
	if run(5) != run(5) {
		t.Error("same seed, different virtual time")
	}
}

// TestDeleteLinkDropsInFlight pins the delivery-time liveness rule on
// every engine path: a message whose link was deleted in flight is
// dropped, one whose link came back before delivery is not, and the
// deletion watermark never lets a stale message through — including on
// shard views, whose own copy of the network dates from Run start.
func TestDeleteLinkDropsInFlight(t *testing.T) {
	defer func(min int) { shardMinBatch = min }(shardMinBatch)
	shardMinBatch = 0 // sharded cases: even one-message batches reach the workers
	type link = [2]NodeID
	cases := []struct {
		name  string
		drive func(nw *Network, send func(from, to NodeID))
		want  []link // delivered (from, to), by destination then arrival
	}{
		{
			name: "deleted-in-flight",
			drive: func(nw *Network, send func(from, to NodeID)) {
				send(1, 2)
				nw.DeleteLink(1, 2)
			},
		},
		{
			name: "delete-then-reinsert",
			drive: func(nw *Network, send func(from, to NodeID)) {
				send(1, 2)
				nw.DeleteLink(1, 2)
				if err := nw.InsertLink(1, 2, 1); err != nil {
					t.Error(err)
				}
			},
			want: []link{{1, 2}},
		},
		{
			name: "sent-after-unrelated-delete",
			drive: func(nw *Network, send func(from, to NodeID)) {
				nw.DeleteLink(3, 4)
				send(1, 2)
				send(3, 2)
			},
			want: []link{{1, 2}, {3, 2}},
		},
		{
			name: "delete-mid-run",
			drive: func(nw *Network, send func(from, to NodeID)) {
				send(1, 2)
				send(2, 3)
				send(3, 4)
				if err := nw.Run(); err != nil {
					t.Error(err)
				}
				send(1, 2)
				send(3, 4)
				nw.DeleteLink(3, 4)
				send(2, 3)
			},
			want: []link{{1, 2}, {1, 2}, {2, 3}, {2, 3}, {3, 4}},
		},
	}
	modes := []struct {
		name string
		opts []Option
	}{
		{"sync", nil},
		{"async", []Option{WithAsync(4), WithSeed(3)}},
	}
	kind := Kind("deletetest.d")
	for _, mode := range modes {
		for _, shards := range []int{1, 2} {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s/shards%d/%s", mode.name, shards, tc.name), func(t *testing.T) {
					nw := buildNet(t, 4, append([]Option{WithShards(shards)}, mode.opts...)...)
					// Receipts are kept per destination: shard workers own
					// disjoint nodes, so the slices never race.
					got := make([][]NodeID, nw.N()+1)
					nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
						got[node.ID] = append(got[node.ID], msg.From)
					})
					tc.drive(nw, func(from, to NodeID) { nw.Send(from, to, kind, 0, 8, nil) })
					if err := nw.Run(); err != nil {
						t.Fatal(err)
					}
					var delivered []link
					for to, froms := range got {
						for _, from := range froms {
							delivered = append(delivered, link{from, NodeID(to)})
						}
					}
					if !reflect.DeepEqual(delivered, tc.want) {
						t.Errorf("delivered %v, want %v", delivered, tc.want)
					}
				})
			}
		}
	}
}

func TestApplyStagedCountsDropsOnVanishedEdges(t *testing.T) {
	nw := buildNet(t, 3)
	// Stage marks on {1,2}, then delete the link before the barrier: both
	// halves must be dropped and counted, not silently discarded.
	nw.Node(1).StageMark(2)
	nw.Node(2).StageMark(1)
	nw.DeleteLink(1, 2)
	nw.ApplyStaged()
	if got := nw.StagedDrops(); got != 2 {
		t.Errorf("StagedDrops = %d, want 2", got)
	}
	if len(nw.MarkedEdges()) != 0 {
		t.Errorf("vanished-edge stage left marks: %v", nw.MarkedEdges())
	}
	// A surviving stage still applies, and does not bump the counter.
	nw.Node(2).StageMark(3)
	nw.Node(3).StageMark(2)
	nw.ApplyStaged()
	if got := nw.StagedDrops(); got != 2 {
		t.Errorf("StagedDrops after clean barrier = %d, want 2", got)
	}
	if me := nw.MarkedEdges(); len(me) != 1 || me[0] != [2]NodeID{2, 3} {
		t.Errorf("marked edges = %v, want [[2 3]]", me)
	}
}

func TestTopologyMutation(t *testing.T) {
	nw := buildNet(t, 3)
	if err := nw.InsertLink(1, 3, 1); err != nil {
		t.Fatal(err)
	}
	if err := nw.InsertLink(1, 3, 1); err == nil {
		t.Error("duplicate insert accepted")
	}
	if err := nw.InsertLink(2, 2, 1); err == nil {
		t.Error("self-loop accepted")
	}
	if nw.Node(1).EdgeTo(3) == nil || nw.Node(3).EdgeTo(1) == nil {
		t.Fatal("insert did not create both halves")
	}
	existed, marked := nw.DeleteLink(1, 3)
	if !existed || marked {
		t.Errorf("delete: existed=%v marked=%v", existed, marked)
	}
	if existed, _ := nw.DeleteLink(1, 3); existed {
		t.Error("double delete reported existing")
	}
}

// TestHalfEdgeSize pins the half-edge at three words: neighbour and mark,
// composite weight, FIFO cell. Both halves of every link are kept, so a
// word more costs 16 bytes per edge of every network.
func TestHalfEdgeSize(t *testing.T) {
	if got := unsafe.Sizeof(HalfEdge{}); got != 24 {
		t.Errorf("HalfEdge is %d bytes, want 24", got)
	}
}

// TestNodeStateSize pins the node state at ten words: ID and place (slot
// plus edge-number width) share the first, then the three slices. Every
// node has one, and the delivery warm pass loads its first line.
func TestNodeStateSize(t *testing.T) {
	if got := unsafe.Sizeof(NodeState{}); got != 80 {
		t.Errorf("NodeState is %d bytes, want 80", got)
	}
	if got := unsafe.Offsetof(NodeState{}.place); got != 4 {
		t.Errorf("NodeState.place at offset %d, want 4 (beside ID)", got)
	}
}

// TestHalfEdgeSplitsComposite checks the accessors against the layout:
// every half-edge's raw weight and edge number are the halves of its
// composite weight.
func TestHalfEdgeSplitsComposite(t *testing.T) {
	r := rng.New(5)
	g := graph.GNM(r, 40, 120, 1000, graph.UniformWeights(r, 1000))
	nw := NewNetwork(g)
	for _, e := range g.Edges() {
		for _, end := range [][2]uint32{{e.A, e.B}, {e.B, e.A}} {
			node := nw.Node(NodeID(end[0]))
			he := node.EdgeTo(NodeID(end[1]))
			if raw, num := node.Raw(he), node.EdgeNum(he); raw != e.Raw || num != g.Layout.EdgeNum(e.A, e.B) {
				t.Fatalf("edge {%d,%d} at %d: raw %d num %d, want %d and %d", e.A, e.B, end[0], raw, num, e.Raw, g.Layout.EdgeNum(e.A, e.B))
			}
		}
	}
}

func TestSetRawWeightUpdatesComposite(t *testing.T) {
	g := graph.Path(2, 100, func(int) uint64 { return 10 })
	nw := NewNetwork(g)
	before := nw.Node(1).EdgeTo(2).Composite
	if err := nw.SetRawWeight(1, 2, 99); err != nil {
		t.Fatal(err)
	}
	he1, he2 := nw.Node(1).EdgeTo(2), nw.Node(2).EdgeTo(1)
	if nw.Node(1).Raw(he1) != 99 || nw.Node(2).Raw(he2) != 99 {
		t.Error("raw weight not updated on both halves")
	}
	if he1.Composite == before || he1.Composite != he2.Composite {
		t.Error("composite not updated consistently")
	}
	if err := nw.SetRawWeight(1, 2, 1000); err == nil {
		t.Error("out-of-range weight accepted")
	}
}

func TestMarkedEdgesInvariant(t *testing.T) {
	nw := buildNet(t, 4)
	nw.SetForest([][2]NodeID{{1, 2}, {3, 4}})
	me := nw.MarkedEdges()
	if len(me) != 2 {
		t.Fatalf("marked edges = %v", me)
	}
	// break the invariant deliberately: one-sided mark must panic.
	nw.Node(2).setMark(3, true)
	defer func() {
		if recover() == nil {
			t.Error("one-sided mark not caught")
		}
	}()
	nw.MarkedEdges()
}

func TestSessionCompletionTwicePanics(t *testing.T) {
	nw := buildNet(t, 2)
	sid := nw.NewSession(nil)
	nw.CompleteSession(sid, nil, nil)
	defer func() {
		if recover() == nil {
			t.Error("double completion should panic")
		}
	}()
	nw.CompleteSession(sid, nil, nil)
}

func TestCountersSub(t *testing.T) {
	nw := buildNet(t, 2)
	nw.RegisterHandler(Kind("a"), func(*Network, *NodeState, *Message) {})
	sid := nw.NewSession(nil)
	nw.Send(1, 2, Kind("a"), sid, 8, nil)
	before := nw.Counters()
	nw.Send(1, 2, Kind("a"), sid, 8, nil)
	nw.Send(2, 1, Kind("a"), sid, 8, nil)
	diff := nw.Counters().Sub(before)
	if diff.Messages != 2 {
		t.Errorf("diff messages = %d, want 2", diff.Messages)
	}
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
}
