package mst

import (
	"fmt"
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
	"kkt/internal/rng"
	"kkt/internal/spanning"
	"kkt/internal/tree"
)

// rebuildGraph reconstructs a graph.Graph from the network's live
// topology, which a churn script mutates away from the generated graph.
func rebuildGraph(nw *congest.Network) *graph.Graph {
	g := graph.MustNew(nw.N(), nw.MaxRaw())
	for v := 1; v <= nw.N(); v++ {
		node := nw.Node(congest.NodeID(v))
		for i := range node.Edges {
			he := &node.Edges[i]
			if uint32(he.Neighbor) > uint32(v) {
				g.MustAddEdge(uint32(v), uint32(he.Neighbor), node.Raw(he))
			}
		}
	}
	return g
}

// forestSet renders marked endpoint pairs as a set for exact comparison.
func forestSet(forest [][2]congest.NodeID) map[[2]congest.NodeID]bool {
	s := make(map[[2]congest.NodeID]bool, len(forest))
	for _, e := range forest {
		s[e] = true
	}
	return s
}

// kruskalSet renders the reference MSF of g as an endpoint-pair set.
func kruskalSet(g *graph.Graph) map[[2]congest.NodeID]bool {
	idx := spanning.Kruskal(g)
	s := make(map[[2]congest.NodeID]bool, len(idx))
	for _, ei := range idx {
		e := g.Edge(ei)
		s[[2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)}] = true
	}
	return s
}

// pickExisting returns a random live link, or ok=false if none remain.
func pickExisting(nw *congest.Network, r *rng.RNG) (congest.NodeID, congest.NodeID, bool) {
	for attempt := 0; attempt < 16*nw.N(); attempt++ {
		v := congest.NodeID(r.Intn(nw.N()) + 1)
		node := nw.Node(v)
		if node.Degree() == 0 {
			continue
		}
		return v, node.Edges[r.Intn(node.Degree())].Neighbor, true
	}
	return 0, 0, false
}

// pickAbsent returns a random absent pair, or ok=false on (near-)complete
// topologies.
func pickAbsent(nw *congest.Network, r *rng.RNG) (congest.NodeID, congest.NodeID, bool) {
	for attempt := 0; attempt < 16*nw.N(); attempt++ {
		a := congest.NodeID(r.Intn(nw.N()) + 1)
		b := congest.NodeID(r.Intn(nw.N()) + 1)
		if a == b || nw.Node(a).EdgeTo(b) != nil {
			continue
		}
		return a, b, true
	}
	return 0, 0, false
}

// TestChurnMatchesKruskalAcrossSeeds is the property test for impromptu
// repair: across many seeded (graph, fault-script) draws, after every
// single Delete/Insert/WeightChange the maintained forest must equal the
// unique composite-weight MSF computed by the Kruskal reference on the
// mutated topology. Seeds alternate between the synchronous and
// asynchronous schedulers.
//
// The paper's Full-variant searches give up with probability ~ n^-c, in
// which case the forest is legitimately left unrepaired; such (seed, op)
// pairs skip the comparison for the rest of the script and are counted,
// with a cap asserting they stay rare.
func TestChurnMatchesKruskalAcrossSeeds(t *testing.T) {
	const (
		seeds  = 56
		nNodes = 24
		nEdges = 52
		maxRaw = 64
		ops    = 16
	)
	gaveUp := 0
	for seed := uint64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			r := rng.New(seed * 0x9e3779b97f4a7c15)
			g := graph.GNM(r, nNodes, nEdges, maxRaw, graph.UniformWeights(r, maxRaw))
			opts := []congest.Option{congest.WithSeed(seed)}
			if seed%2 == 0 {
				opts = append(opts, congest.WithAsync(4))
			}
			nw := congest.NewNetwork(g, opts...)
			pr := tree.Attach(nw)

			ref := spanning.Kruskal(g)
			forest := make([][2]congest.NodeID, len(ref))
			for i, ei := range ref {
				e := g.Edge(ei)
				forest[i] = [2]congest.NodeID{congest.NodeID(e.A), congest.NodeID(e.B)}
			}
			nw.SetForest(forest)

			for op := 0; op < ops; op++ {
				opSeed := seed ^ uint64(op+1)*0xd6e8feb86659fd93
				var rep Report
				var err error
				var desc string
				switch r.Intn(3) {
				case 0:
					a, b, ok := pickExisting(nw, r)
					if !ok {
						continue
					}
					desc = fmt.Sprintf("Delete{%d,%d}", a, b)
					rep, err = Delete(nw, pr, a, b, DefaultRepair(opSeed))
				case 1:
					a, b, ok := pickAbsent(nw, r)
					if !ok {
						continue
					}
					raw := r.Range(1, maxRaw)
					desc = fmt.Sprintf("Insert{%d,%d,w=%d}", a, b, raw)
					rep, err = Insert(nw, pr, a, b, raw, DefaultRepair(opSeed))
				case 2:
					a, b, ok := pickExisting(nw, r)
					if !ok {
						continue
					}
					raw := r.Range(1, maxRaw)
					desc = fmt.Sprintf("WeightChange{%d,%d,w=%d}", a, b, raw)
					rep, err = WeightChange(nw, pr, a, b, raw, DefaultRepair(opSeed))
				}
				if err != nil {
					t.Fatalf("op %d %s: %v", op, desc, err)
				}
				if rep.Action == Failed {
					// Randomized search gave up: the forest is allowed to
					// be stale from here on.
					gaveUp++
					return
				}
				cur := rebuildGraph(nw)
				got := forestSet(nw.MarkedEdges())
				want := kruskalSet(cur)
				if len(got) != len(want) {
					t.Fatalf("op %d %s: forest has %d edges, Kruskal reference %d", op, desc, len(got), len(want))
				}
				for e := range want {
					if !got[e] {
						t.Fatalf("op %d %s: reference edge {%d,%d} missing from maintained forest", op, desc, e[0], e[1])
					}
				}
			}
		})
	}
	if gaveUp > seeds/10 {
		t.Errorf("randomized repairs gave up in %d/%d scripts — too often for n^-c", gaveUp, seeds)
	}
}
