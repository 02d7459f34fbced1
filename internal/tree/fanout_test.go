package tree

import (
	"fmt"
	"reflect"
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/rng"
	"kkt/internal/spanning"
)

// pickSearch selects a fixed edge per leader (0 = none) after awaiting
// one already-completed session, so the fan-out sees a search that parks
// and resumes like a real one without sending messages.
type pickSearch struct {
	nw      *congest.Network
	pick    map[congest.NodeID]uint64
	leader  congest.NodeID
	started bool
}

func (s *pickSearch) Arm(phase int, leader congest.NodeID) {
	s.leader, s.started = leader, false
}

func (s *pickSearch) Found() (uint64, Outcome) {
	if e := s.pick[s.leader]; e != 0 {
		return e, FoundEdge
	}
	return 0, EmptyCut
}

func (s *pickSearch) Step(_ *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	if !s.started {
		s.started = true
		sid := s.nw.NewSession(nil)
		s.nw.CompleteSessionU(sid, 0, nil)
		return sid, false, nil
	}
	_, err := w.U()
	return 0, true, err
}

// phaseRec records the observer's phase annotations.
type phaseRec struct{ events []string }

func (*phaseRec) RoundEnd(int64, uint64, uint64, []congest.KindCount, []uint64) {}
func (*phaseRec) SessionOpen(uint64, int64)                                     {}
func (*phaseRec) SessionDone(uint64, int64, bool)                               {}
func (*phaseRec) RepairStart(string, int64)                                     {}
func (*phaseRec) RepairDone(string, string, int64, int64, uint64, uint64)       {}
func (*phaseRec) Count(string, uint64)                                          {}
func (r *phaseRec) PhaseStart(proto string, phase, fragments int, _ int64) {
	r.events = append(r.events, fmt.Sprintf("start %s %d %d", proto, phase, fragments))
}
func (r *phaseRec) PhaseEnd(proto string, phase int, _ int64, cost congest.PhaseCosts) {
	r.events = append(r.events, fmt.Sprintf("end %s %d %d", proto, phase, cost.Messages))
}

// TestFanoutAddsFoundEdges runs one fan-out phase over the four singleton
// fragments of an unmarked path: the edges two searches report must be
// marked at both endpoints by the phase's end, the tally counts two found
// edges and two empty cuts, and the observer sees one bracketed phase
// carrying the two cross-edge mark messages.
func TestFanoutAddsFoundEdges(t *testing.T) {
	g := graph.Path(4, 1000, func(k int) uint64 { return uint64(k + 1) })
	rec := &phaseRec{}
	nw := congest.NewNetwork(g, congest.WithObserver(rec))
	pr := Attach(nw)
	pick := map[congest.NodeID]uint64{
		1: nw.Node(1).EdgeNum(nw.Node(1).EdgeTo(2)),
		4: nw.Node(4).EdgeNum(nw.Node(4).EdgeTo(3)),
	}
	fan := NewFanout(pr, "test", "pick", func() *pickSearch {
		return &pickSearch{nw: nw, pick: pick}
	}, (*pickSearch).Arm)
	fan.Begin()
	tally, _, err := fan.Run(1, []congest.NodeID{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Tally{FoundEdge: 2, EmptyCut: 2}); tally != want {
		t.Errorf("tally %v, want %v", tally, want)
	}
	want := [][2]congest.NodeID{{1, 2}, {3, 4}}
	if marked := nw.MarkedEdges(); !reflect.DeepEqual(marked, want) {
		t.Errorf("marked edges %v, want %v", marked, want)
	}
	if wantEv := []string{"start test 1 4", "end test 1 2"}; !reflect.DeepEqual(rec.events, wantEv) {
		t.Errorf("observer saw %q, want %q", rec.events, wantEv)
	}
}

// TestFanoutSingletonsShareOneSearch pins the fan-out's footprint on a
// phase of one-node fragments: each search finishes inside its fragment's
// first Step, so 256 fragments (over two phases) build exactly one search.
func TestFanoutSingletonsShareOneSearch(t *testing.T) {
	const n = 256
	g := graph.Path(n, 1000, func(k int) uint64 { return uint64(k + 1) })
	nw := congest.NewNetwork(g)
	pr := Attach(nw)
	leaders := make([]congest.NodeID, n)
	for i := range leaders {
		leaders[i] = congest.NodeID(i + 1)
	}
	built := 0
	fan := NewFanout(pr, "test", "pick", func() *pickSearch {
		built++
		return &pickSearch{nw: nw}
	}, (*pickSearch).Arm)
	for phase := 1; phase <= 2; phase++ {
		fan.Begin()
		tally, _, err := fan.Run(phase, leaders)
		if err != nil {
			t.Fatal(err)
		}
		if tally[EmptyCut] != n {
			t.Fatalf("phase %d: tally %v, want %d empty cuts", phase, tally, n)
		}
	}
	if built != 1 {
		t.Errorf("built %d searches for %d singleton fragments, want 1", built, n)
	}
}

// sumSearch runs one broadcast-and-echo of sumSpec over its fragment,
// records the echo under the leader and reports an empty cut.
type sumSearch struct {
	pr      *Protocol
	sums    map[congest.NodeID]uint64
	leader  congest.NodeID
	started bool
}

func (s *sumSearch) Arm(phase int, leader congest.NodeID) {
	s.leader, s.started = leader, false
}

func (s *sumSearch) Found() (uint64, Outcome) { return 0, EmptyCut }

func (s *sumSearch) Step(_ *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	if !s.started {
		s.started = true
		return s.pr.StartBroadcastEcho(s.leader, sumSpec()), false, nil
	}
	u, err := w.U()
	s.sums[s.leader] = u
	return 0, true, err
}

// TestFanoutRelaysOutInFragmentOrder runs fan-out phases over the
// fragments of a marked forest on a network the skip rule re-lays out.
// Before each phase's re-layout and after its barrier no broadcast-and-
// echo slot is taken, so the slots need not move with the states. After
// the re-layout the fragments lie in leader order, each in DFS preorder
// from its leader with children in Edges order, and every fragment's
// broadcast-and-echo, run on the new layout, sums the IDs of its nodes.
func TestFanoutRelaysOutInFragmentOrder(t *testing.T) {
	r := rng.New(9)
	g := graph.GNM(r, 5000, 12000, 1<<16, graph.UniformWeights(r, 1<<16))
	nw := congest.NewNetwork(g)
	var forest [][2]congest.NodeID
	for i, ei := range spanning.Kruskal(g) {
		if i%5 != 0 {
			e := g.Edge(ei)
			forest = append(forest, [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)})
		}
	}
	nw.SetForest(forest)
	pr := Attach(nw)
	sums := map[congest.NodeID]uint64{}
	fan := NewFanout(pr, "test", "sum", func() *sumSearch { return &sumSearch{pr: pr, sums: sums} }, (*sumSearch).Arm)
	fan.OrderStorage()
	if !fan.relayout {
		t.Fatal("the skip rule skips a sparse 5000-node network")
	}
	slotsFree := func(when string) {
		t.Helper()
		for i := range pr.slots {
			if pr.slots[i].sid != 0 {
				t.Fatalf("%s: broadcast-and-echo slot %d is taken", when, i)
			}
		}
	}
	// dfs appends the fragment of v in preorder, children in Edges order.
	var dfs func(v, parent congest.NodeID, order []congest.NodeID) []congest.NodeID
	dfs = func(v, parent congest.NodeID, order []congest.NodeID) []congest.NodeID {
		order = append(order, v)
		for _, he := range nw.Node(v).Edges {
			if he.Marked && he.Neighbor != parent {
				order = dfs(he.Neighbor, v, order)
			}
		}
		return order
	}
	for phase := 1; phase <= 2; phase++ {
		fan.Begin()
		elect, err := pr.ElectAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(elect.Leaders) < 500 || len(elect.Leaders) >= nw.N() {
			t.Fatalf("phase %d: %d fragments", phase, len(elect.Leaders))
		}
		slotsFree("before the re-layout")
		if _, _, err := fan.Run(phase, elect.Leaders); err != nil {
			t.Fatal(err)
		}
		slotsFree("after the barrier")
		var order []congest.NodeID
		for _, leader := range elect.Leaders {
			start := len(order)
			order = dfs(leader, 0, order)
			want := uint64(0)
			for _, v := range order[start:] {
				want += uint64(v)
			}
			if sums[leader] != want {
				t.Fatalf("phase %d: fragment of %d sums to %d, want %d", phase, leader, sums[leader], want)
			}
		}
		for i, v := range order {
			if s := nw.Node(v).Slot(); s != i+1 {
				t.Fatalf("phase %d: node %d at slot %d, want %d", phase, v, s, i+1)
			}
		}
	}
}

// TestFanoutRelayoutSkipRule pins the size and degree parts of the skip
// rule: below relayoutMinNodes nodes, or above an average degree of
// relayoutMaxDegree, a fan-out keeps the layout it finds.
func TestFanoutRelayoutSkipRule(t *testing.T) {
	r := rng.New(3)
	for _, tc := range []struct {
		n, m int
		want bool
	}{
		{relayoutMinNodes - 1, 3 * relayoutMinNodes, false},
		{relayoutMinNodes, 3 * relayoutMinNodes, true},
		{relayoutMinNodes, relayoutMaxDegree * relayoutMinNodes / 2, true},
		{relayoutMinNodes, relayoutMaxDegree*relayoutMinNodes/2 + 1, false},
	} {
		g := graph.GNM(r, tc.n, tc.m, 16, graph.UniformWeights(r, 16))
		if got := relayoutPays(congest.NewNetwork(g)); got != tc.want {
			t.Errorf("n=%d m=%d: relayoutPays = %v, want %v", tc.n, tc.m, got, tc.want)
		}
	}
}
