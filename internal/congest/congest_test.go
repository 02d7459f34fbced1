package congest

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"kkt/internal/graph"
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
	var result any
	nw.Spawn("pinger", func(p *Proc) error {
		sid = nw.NewSession(nil)
		nw.Send(1, 2, Kind("ping"), sid, 8, "hi")
		r, err := p.Await(sid)
		result = r
		return err
	})
	if err := nw.Run(); err != nil {
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
	nw.Spawn("chain", func(p *Proc) error {
		sid := nw.NewSession(nil)
		nw.Send(1, 2, Kind("fwd"), sid, 8, nil)
		_, err := p.Await(sid)
		return err
	})
	if err := nw.Run(); err != nil {
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

func TestDeadlockDetectedAndUnwound(t *testing.T) {
	nw := buildNet(t, 2)
	var sawErr error
	nw.Spawn("stuck", func(p *Proc) error {
		sid := nw.NewSession(nil) // nobody will complete this
		_, err := p.Await(sid)
		sawErr = err
		return err
	})
	err := nw.Run()
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("Run error = %v, want deadlock", err)
	}
	if !errors.Is(sawErr, ErrDeadlock) {
		t.Fatalf("driver did not observe deadlock: %v", sawErr)
	}
}

func TestChildProcsAndWaitAll(t *testing.T) {
	nw := buildNet(t, 4)
	nw.RegisterHandler(Kind("echo2"), func(nw *Network, node *NodeState, msg *Message) {
		nw.CompleteSession(msg.Session, int(node.ID), nil)
	})
	total := 0
	nw.Spawn("parent", func(p *Proc) error {
		var kids []*Proc
		for i := 1; i <= 3; i++ {
			from := NodeID(i)
			to := NodeID(i + 1)
			kids = append(kids, p.Go("kid", func(p *Proc) error {
				sid := nw.NewSession(nil)
				nw.Send(from, to, Kind("echo2"), sid, 8, nil)
				v, err := p.Await(sid)
				if err != nil {
					return err
				}
				total += v.(int)
				return nil
			}))
		}
		return p.WaitAll(kids...)
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if total != 2+3+4 {
		t.Errorf("total = %d, want 9", total)
	}
}

func TestAwaitQuiescenceBarriers(t *testing.T) {
	nw := buildNet(t, 3)
	delivered := 0
	nw.RegisterHandler(Kind("slow"), func(nw *Network, node *NodeState, msg *Message) {
		delivered++
		if n := node.ID + 1; int(n) <= nw.N() {
			nw.Send(node.ID, n, Kind("slow"), msg.Session, 8, nil)
		}
	})
	nw.Spawn("driver", func(p *Proc) error {
		sid := nw.NewSession(nil)
		nw.Send(1, 2, Kind("slow"), sid, 8, nil)
		p.AwaitQuiescence()
		if delivered != 2 {
			t.Errorf("barrier released early: delivered = %d", delivered)
		}
		// the fire-and-forget session is still open; complete it so Run
		// does not call it a leak... sessions without waiters are fine.
		nw.CompleteSession(sid, nil, nil)
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
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
	nw.Spawn("sender", func(p *Proc) error {
		sid := nw.NewSession(nil)
		for i := 0; i < 10; i++ {
			nw.Send(1, 2, Kind("seq"), sid, 8, i)
		}
		_, err := p.Await(sid)
		return err
	})
	if err := nw.Run(); err != nil {
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
		nw.Spawn("g", func(p *Proc) error {
			sid := nw.NewSession(nil)
			nw.Send(1, 2, Kind("gossip"), sid, 8, nil)
			_, err := p.Await(sid)
			return err
		})
		if err := nw.Run(); err != nil {
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
		drive func(nw *Network, p *Proc, send func(from, to NodeID))
		want  []link // delivered (from, to), by destination then arrival
	}{
		{
			name: "deleted-in-flight",
			drive: func(nw *Network, p *Proc, send func(from, to NodeID)) {
				send(1, 2)
				nw.DeleteLink(1, 2)
			},
		},
		{
			name: "delete-then-reinsert",
			drive: func(nw *Network, p *Proc, send func(from, to NodeID)) {
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
			drive: func(nw *Network, p *Proc, send func(from, to NodeID)) {
				nw.DeleteLink(3, 4)
				send(1, 2)
				send(3, 2)
			},
			want: []link{{1, 2}, {3, 2}},
		},
		{
			name: "delete-mid-run",
			drive: func(nw *Network, p *Proc, send func(from, to NodeID)) {
				send(1, 2)
				send(2, 3)
				send(3, 4)
				p.AwaitQuiescence()
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
					nw.Spawn("driver", func(p *Proc) error {
						tc.drive(nw, p, func(from, to NodeID) { nw.Send(from, to, kind, 0, 8, nil) })
						p.AwaitQuiescence()
						return nil
					})
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

func TestSetRawWeightUpdatesComposite(t *testing.T) {
	g := graph.Path(2, 100, func(int) uint64 { return 10 })
	nw := NewNetwork(g)
	before := nw.Node(1).EdgeTo(2).Composite
	if err := nw.SetRawWeight(1, 2, 99); err != nil {
		t.Fatal(err)
	}
	he1, he2 := nw.Node(1).EdgeTo(2), nw.Node(2).EdgeTo(1)
	if he1.Raw != 99 || he2.Raw != 99 {
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
	nw.Node(2).SetMark(3, true)
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
	nw.Spawn("d", func(p *Proc) error {
		sid := nw.NewSession(nil)
		nw.Send(1, 2, Kind("a"), sid, 8, nil)
		before := nw.Counters()
		nw.Send(1, 2, Kind("a"), sid, 8, nil)
		nw.Send(2, 1, Kind("a"), sid, 8, nil)
		diff := nw.Counters().Sub(before)
		if diff.Messages != 2 {
			t.Errorf("diff messages = %d, want 2", diff.Messages)
		}
		p.AwaitQuiescence()
		nw.CompleteSession(sid, nil, nil)
		return nil
	})
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
}
