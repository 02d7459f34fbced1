package admit_test

import (
	"testing"

	"kkt/internal/admit"
	"kkt/internal/congest"
	"kkt/internal/faultplan"
	"kkt/internal/graph"
	"kkt/internal/mst"
	"kkt/internal/race"
	"kkt/internal/rng"
	"kkt/internal/spanning"
	"kkt/internal/st"
	"kkt/internal/tree"
)

// TestLauncherInlineBranches drives one event at a time through the queue
// with each structure's launcher and checks the admission branches that
// resolve without a repair: the event is tallied under the expected
// action, no repair launches, and the topology ends as stated. The same
// event as a single update (mst/st Delete, Insert, WeightChange) takes the
// same branch, with a skip reported as an error.
func TestLauncherInlineBranches(t *testing.T) {
	type net struct {
		g      *graph.Graph
		nw     *congest.Network
		forest map[[2]uint32]bool
	}
	// absent is a pair of distinct nodes with no link between them.
	absent := func(n net) (uint32, uint32) {
		for a := uint32(1); ; a++ {
			for b := a + 1; b <= uint32(n.g.N); b++ {
				if !n.g.HasEdge(a, b) {
					return a, b
				}
			}
		}
	}
	// edge is the first link in or out of the forest.
	edge := func(n net, inForest bool) graph.Edge {
		for i := 0; i < n.g.M(); i++ {
			if e := n.g.Edge(i); n.forest[[2]uint32{e.A, e.B}] == inForest {
				return e
			}
		}
		t.Fatal("no such edge")
		return graph.Edge{}
	}
	linked := func(n net, a, b uint32) bool { return n.nw.Node(congest.NodeID(a)).EdgeTo(congest.NodeID(b)) != nil }
	// untouched checks that the event's tree edge kept its mark and its
	// generated weight at both ends.
	untouched := func(t *testing.T, n net, ev faultplan.Event) {
		a, b := congest.NodeID(ev.A), congest.NodeID(ev.B)
		want := n.g.Edge(n.g.EdgeIndex(ev.A, ev.B)).Raw
		for _, node := range []*congest.NodeState{n.nw.Node(a), n.nw.Node(b)} {
			he := node.EdgeTo(a + b - node.ID)
			if !he.Marked || node.Raw(he) != want {
				t.Errorf("edge {%d,%d} end: marked=%v raw=%d, want marked with raw %d", a, b, he.Marked, node.Raw(he), want)
			}
		}
	}

	cases := []struct {
		name   string
		algos  []string
		action admit.Action
		event  func(n net) faultplan.Event
		check  func(t *testing.T, n net, ev faultplan.Event)
	}{
		{
			name: "delete-absent", algos: []string{"mst", "st"}, action: admit.Skipped,
			event: func(n net) faultplan.Event {
				a, b := absent(n)
				return faultplan.Event{Op: faultplan.OpDelete, A: a, B: b}
			},
			check: func(t *testing.T, n net, ev faultplan.Event) {
				if linked(n, ev.A, ev.B) {
					t.Errorf("skipped delete created {%d,%d}", ev.A, ev.B)
				}
			},
		},
		{
			name: "delete-unmarked", algos: []string{"mst", "st"}, action: admit.NoOp,
			event: func(n net) faultplan.Event {
				e := edge(n, false)
				return faultplan.Event{Op: faultplan.OpDelete, A: e.A, B: e.B}
			},
			check: func(t *testing.T, n net, ev faultplan.Event) {
				if linked(n, ev.A, ev.B) {
					t.Errorf("no-op delete left {%d,%d} linked", ev.A, ev.B)
				}
			},
		},
		{
			name: "insert-self-loop", algos: []string{"mst", "st"}, action: admit.Skipped,
			event: func(n net) faultplan.Event {
				return faultplan.Event{Op: faultplan.OpInsert, A: 3, B: 3, Raw: 5}
			},
		},
		{
			name: "insert-no-such-node", algos: []string{"mst", "st"}, action: admit.Skipped,
			event: func(n net) faultplan.Event {
				return faultplan.Event{Op: faultplan.OpInsert, A: 1, B: uint32(n.g.N) + 1, Raw: 5}
			},
		},
		{
			name: "insert-existing", algos: []string{"mst", "st"}, action: admit.Skipped,
			event: func(n net) faultplan.Event {
				e := edge(n, true)
				return faultplan.Event{Op: faultplan.OpInsert, A: e.A, B: e.B, Raw: 1}
			},
			check: untouched,
		},
		{
			name: "reweight", algos: []string{"st"}, action: admit.Skipped,
			event: func(n net) faultplan.Event {
				e := edge(n, true)
				return faultplan.Event{Op: faultplan.OpWeightChange, A: e.A, B: e.B, Raw: e.Raw + 1}
			},
			check: untouched,
		},
		{
			// A weight beyond the network's raw range is refused by
			// SetRawWeight, so the tree edge keeps its mark and its weight
			// and no repair launches at the old weight.
			name: "reweight-out-of-range", algos: []string{"mst"}, action: admit.Skipped,
			event: func(n net) faultplan.Event {
				e := edge(n, true)
				return faultplan.Event{Op: faultplan.OpWeightChange, A: e.A, B: e.B, Raw: n.nw.MaxRaw() + 1}
			},
			check: untouched,
		},
	}
	setup := func(algo string) (net, *tree.Protocol) {
		r := rng.New(7)
		g := graph.GNM(r, 16, 40, 1000, graph.UniformWeights(r.Split(), 1000))
		forest := spanning.Kruskal(g)
		if algo == "st" {
			forest = spanning.BFSForest(g)
		}
		n := net{g: g, nw: congest.NewNetwork(g), forest: map[[2]uint32]bool{}}
		pairs := make([][2]congest.NodeID, len(forest))
		for i, ei := range forest {
			e := g.Edge(ei)
			n.forest[[2]uint32{e.A, e.B}] = true
			pairs[i] = [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)}
		}
		n.nw.SetForest(pairs)
		return n, tree.Attach(n.nw)
	}
	// single applies ev as a single update; ok is false for an event the
	// structure has no single op for.
	single := func(algo string, n net, pr *tree.Protocol, ev faultplan.Event) (rep admit.Report, ok bool, err error) {
		a, b := congest.NodeID(ev.A), congest.NodeID(ev.B)
		switch {
		case algo == "mst" && ev.Op == faultplan.OpDelete:
			rep, err = mst.Delete(n.nw, pr, a, b, mst.DefaultRepair(7))
		case algo == "mst" && ev.Op == faultplan.OpInsert:
			rep, err = mst.Insert(n.nw, pr, a, b, ev.Raw, mst.DefaultRepair(7))
		case algo == "mst":
			rep, err = mst.WeightChange(n.nw, pr, a, b, ev.Raw, mst.DefaultRepair(7))
		case ev.Op == faultplan.OpDelete:
			rep, err = st.Delete(n.nw, pr, a, b, st.DefaultRepair(7))
		case ev.Op == faultplan.OpInsert:
			rep, err = st.Insert(n.nw, pr, a, b, st.DefaultRepair(7))
		default:
			return rep, false, nil
		}
		return rep, true, err
	}
	for _, tc := range cases {
		for _, algo := range tc.algos {
			t.Run(algo+"/"+tc.name, func(t *testing.T) {
				n, pr := setup(algo)
				var l admit.Launcher = mst.NewStormLauncher(n.nw, pr, mst.DefaultRepair(7))
				if algo == "st" {
					l = st.NewStormLauncher(n.nw, pr, st.DefaultRepair(7))
				}

				ev := tc.event(n)
				stats, err := admit.Run(n.nw, []faultplan.Event{ev}, l, admit.Config{Wave: 4, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				skipped := 0
				if tc.action == admit.Skipped {
					skipped = 1
				}
				if stats.Repairs != 0 || stats.Inline != 1 || stats.Skipped != skipped || stats.Actions[tc.action.String()] != 1 {
					t.Errorf("stats = %+v, want one inline %s and no repair", stats, tc.action)
				}
				if tc.check != nil {
					tc.check(t, n, ev)
				}

				n, pr = setup(algo)
				rep, ok, err := single(algo, n, pr, ev)
				if !ok {
					return
				}
				if tc.action == admit.Skipped {
					if err == nil {
						t.Errorf("single update: %v, want an error", rep.Action)
					}
				} else if err != nil || rep.Action != tc.action || rep.Messages != 0 {
					t.Errorf("single update: %v %+v %v, want a free %v", rep.Action, rep.Cost, err, tc.action)
				}
				if tc.check != nil {
					tc.check(t, n, ev)
				}
			})
		}
	}
}

// stormNet returns a 64-node network whose marked forest is g's MSF, with
// the storm launcher maintaining it.
func stormNet() (*congest.Network, [][2]congest.NodeID, admit.Launcher) {
	r := rng.New(7)
	g := graph.GNM(r, 64, 160, 1000, graph.UniformWeights(r.Split(), 1000))
	nw := congest.NewNetwork(g)
	var forest [][2]congest.NodeID
	for _, ei := range spanning.Kruskal(g) {
		e := g.Edge(ei)
		forest = append(forest, [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)})
	}
	nw.SetForest(forest)
	return nw, forest, mst.NewStormLauncher(nw, tree.Attach(nw), mst.DefaultRepair(7))
}

// TestAdmitDeleteAllocs pins a warm tree-edge delete admission at zero
// allocations: the scan's claim of its one component, the link's removal,
// the rooting walk and the launch of a pooled repair. Each run puts the
// link and its mark back and releases the repair, so the next scan admits
// the same delete warm.
func TestAdmitDeleteAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	nw, forest, l := stormNet()
	a, b := forest[0][0], forest[0][1]
	raw := nw.Node(a).Raw(nw.Node(a).EdgeTo(b))
	ev := faultplan.Event{Op: faultplan.OpDelete, A: uint32(a), B: uint32(b)}
	q := admit.NewQueue(admit.Config{})
	claimed := 0
	admitOnce := func() {
		dec := l.Admit(ev, q.ScanClaim(nw))
		if dec.Driver == nil {
			t.Fatalf("delete of tree edge {%d,%d}: %+v, want a launched repair", a, b, dec)
		}
		claimed += q.Claimed()
		if err := nw.InsertLink(a, b, raw); err != nil {
			t.Fatal(err)
		}
		nw.SetMark(a, b, true)
		l.Release(dec.Driver)
	}
	admitOnce() // warm: the labels, the pooled repair and its search
	if avg := testing.AllocsPerRun(20, admitOnce); avg != 0 {
		t.Errorf("warm delete admission: %.1f allocs, want 0", avg)
	}
	if claimed != 22 {
		t.Errorf("claimed %d components, want one per admission (22)", claimed)
	}
}

// TestRootWalks counts the rooting walks of admissions through the labels'
// walk stamp: an insert-style repair (insert, weight decrease) is rooted
// from the wave-start labels without a walk, and a delete-style one (tree
// edge delete, weight increase) by exactly one walk across its cut.
func TestRootWalks(t *testing.T) {
	nw, forest, l := stormNet()
	var nonTree [2]congest.NodeID
	var nonTreeRaw uint64
	for v := congest.NodeID(1); nonTreeRaw == 0; v++ {
		for _, he := range nw.Node(v).Edges {
			if raw := nw.Node(v).Raw(&he); !he.Marked && he.Neighbor > v && raw > 1 {
				nonTree, nonTreeRaw = [2]congest.NodeID{v, he.Neighbor}, raw
				break
			}
		}
	}
	var absent [2]congest.NodeID
	for a := congest.NodeID(1); absent[0] == 0; a++ {
		for b := a + 1; int(b) <= nw.N(); b++ {
			if nw.Node(a).EdgeTo(b) == nil {
				absent = [2]congest.NodeID{a, b}
				break
			}
		}
	}
	t1, t2 := forest[0], forest[len(forest)/2]
	raw2 := nw.Node(t2[0]).Raw(nw.Node(t2[0]).EdgeTo(t2[1]))
	cases := []struct {
		name  string
		ev    faultplan.Event
		walks uint32
	}{
		{"insert", faultplan.Event{Op: faultplan.OpInsert, A: uint32(absent[0]), B: uint32(absent[1]), Raw: 3}, 0},
		{"weight decrease", faultplan.Event{Op: faultplan.OpWeightChange, A: uint32(nonTree[0]), B: uint32(nonTree[1]), Raw: nonTreeRaw - 1}, 0},
		{"tree edge delete", faultplan.Event{Op: faultplan.OpDelete, A: uint32(t1[0]), B: uint32(t1[1])}, 1},
		{"weight increase", faultplan.Event{Op: faultplan.OpWeightChange, A: uint32(t2[0]), B: uint32(t2[1]), Raw: raw2 + 1}, 1},
	}
	for _, tc := range cases {
		q := admit.NewQueue(admit.Config{})
		claim := q.ScanClaim(nw)
		before := q.DuelStamp()
		dec := l.Admit(tc.ev, claim)
		if dec.Driver == nil {
			t.Fatalf("%s: %+v, want a launched repair", tc.name, dec)
		}
		if walks := (q.DuelStamp() - before) / 2; walks != tc.walks {
			t.Errorf("%s: rooted with %d walks, want %d", tc.name, walks, tc.walks)
		}
		l.Release(dec.Driver)
	}
}
