package congest

import (
	"fmt"
	"reflect"
	"testing"

	"kkt/internal/graph"
)

// starNet returns a network where node 1 links to 3 and 5 (positions 0
// and 1 of its Edges), and 2 and 4 are isolated until a test inserts them.
func starNet(t *testing.T, opts ...Option) *Network {
	t.Helper()
	g := graph.MustNew(5, 16)
	g.MustAddEdge(1, 3, 1)
	g.MustAddEdge(1, 5, 2)
	return NewNetwork(g, opts...)
}

// TestSendAtStalePosition: a position made stale by InsertLink or
// DeleteLink (the neighbour moved to another slot of Edges, or past its
// end) still reaches the named neighbour, as do out-of-range positions.
func TestSendAtStalePosition(t *testing.T) {
	nw := starNet(t)
	type hit struct{ from, to NodeID }
	var got []hit
	kind := Kind("sendat.probe")
	nw.RegisterHandler(kind, func(_ *Network, node *NodeState, msg *Message) {
		got = append(got, hit{msg.From, node.ID})
	})
	pos := nw.Node(1).EdgeIndex(5) // 1
	var want []hit
	for _, step := range []func(){
		func() {},                                           // fresh position
		func() { _ = nw.InsertLink(1, 2, 3) },               // 5 moves to position 2
		func() { _ = nw.InsertLink(1, 4, 3) },               // 5 moves to position 3
		func() { nw.DeleteLink(1, 2); nw.DeleteLink(1, 4) }, // back to 1; 3 is past the end
	} {
		step()
		for _, ei := range []int{pos, pos + 2, -1, 99} {
			nw.SendAt(1, ei, 5, kind, 0, 8, nil)
			want = append(want, hit{1, 5})
		}
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deliveries = %v, want %v", got, want)
	}
}

// TestSendAtMissingLinkPanics: a position whose link is gone panics with
// exactly Send's message.
func TestSendAtMissingLinkPanics(t *testing.T) {
	kind := Kind("sendat.gone")
	panicOf := func(send func(nw *Network, pos int)) string {
		nw := starNet(t)
		nw.RegisterHandler(kind, func(*Network, *NodeState, *Message) {})
		pos := nw.Node(1).EdgeIndex(5)
		nw.DeleteLink(1, 5)
		var msg string
		func() {
			defer func() { msg = fmt.Sprint(recover()) }()
			send(nw, pos)
		}()
		return msg
	}
	want := panicOf(func(nw *Network, _ int) { nw.Send(1, 5, kind, 0, 8, nil) })
	if want == "<nil>" {
		t.Fatal("Send over a deleted link did not panic")
	}
	for name, send := range map[string]func(*Network, int){
		"SendAt":  func(nw *Network, pos int) { nw.SendAt(1, pos, 5, kind, 0, 8, nil) },
		"SendUAt": func(nw *Network, pos int) { nw.SendUAt(1, pos, 5, kind, 0, 8, 7) },
	} {
		if got := panicOf(send); got != want {
			t.Errorf("%s panic %q, want Send's %q", name, got, want)
		}
	}
}

// TestSendAtAsyncFIFO: under the asynchronous scheduler a position send
// draws the same delays and updates the same per-link FIFO cell as Send,
// so gossip on a small network delivers in the same order at the same
// times, and leaves every half-edge's FIFO state identical.
func TestSendAtAsyncFIFO(t *testing.T) {
	type delivery struct {
		from, to NodeID
		hop      uint64
		at       int64
	}
	run := func(byPos bool) ([]delivery, []int64) {
		g := graph.Ring(6, 1, graph.UnitWeights())
		g.MustAddEdge(1, 4, 1)
		nw := NewNetwork(g, WithAsync(5), WithSeed(11))
		kind := Kind("sendat.gossip")
		var log []delivery
		nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
			log = append(log, delivery{msg.From, node.ID, msg.U, nw.Now()})
			if msg.U == 4 {
				return
			}
			for i, he := range node.Edges {
				if byPos {
					nw.SendUAt(node.ID, i, he.Neighbor, kind, 0, 8, msg.U+1)
				} else {
					nw.SendU(node.ID, he.Neighbor, kind, 0, 8, msg.U+1)
				}
			}
		})
		for i := 0; i < 3; i++ {
			nw.SendU(1, 2, kind, 0, 8, 0)
			nw.SendU(4, 1, kind, 0, 8, 0)
		}
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
		var cells []int64
		for v := 1; v <= nw.N(); v++ {
			for _, he := range nw.Node(NodeID(v)).Edges {
				cells = append(cells, he.lastSched)
			}
		}
		return log, cells
	}
	wantLog, wantCells := run(false)
	gotLog, gotCells := run(true)
	if !reflect.DeepEqual(gotLog, wantLog) {
		t.Errorf("position sends delivered %d messages in a different order or time than Send's %d", len(gotLog), len(wantLog))
	}
	if !reflect.DeepEqual(gotCells, wantCells) {
		t.Errorf("FIFO cells after position sends %v, after Send %v", gotCells, wantCells)
	}
}
