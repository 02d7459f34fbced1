package graph

import (
	"testing"

	"kkt/internal/rng"
)

func TestAddEdgeValidation(t *testing.T) {
	g := MustNew(5, 10)
	if err := g.AddEdge(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name    string
		a, b    uint32
		raw     uint64
		wantErr bool
	}{
		{"duplicate", 1, 2, 5, true},
		{"duplicate reversed", 2, 1, 5, true},
		{"self loop", 3, 3, 1, true},
		{"endpoint zero", 0, 1, 1, true},
		{"endpoint too big", 1, 6, 1, true},
		{"weight zero", 3, 4, 0, true},
		{"weight too big", 3, 4, 11, true},
		{"ok", 3, 4, 10, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := g.AddEdge(tt.a, tt.b, tt.raw); (err != nil) != tt.wantErr {
				t.Errorf("AddEdge(%d,%d,%d) err=%v wantErr=%v", tt.a, tt.b, tt.raw, err, tt.wantErr)
			}
		})
	}
}

// TestMustAddEdgePanicsOnDuplicate covers MustAddEdge's single-hash
// duplicate check: the index that did not grow, in either direction.
func TestMustAddEdgePanicsOnDuplicate(t *testing.T) {
	for _, dup := range [][2]uint32{{1, 2}, {2, 1}} {
		g := MustNewCap(3, 5, 2)
		g.MustAddEdge(1, 2, 1)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustAddEdge(%d,%d) of an existing edge did not panic", dup[0], dup[1])
				}
			}()
			g.MustAddEdge(dup[0], dup[1], 2)
		}()
		if g.M() != 1 {
			t.Errorf("duplicate appended: %d edges", g.M())
		}
	}
}

func TestEdgeNormalisationAndLookup(t *testing.T) {
	g := MustNew(10, 5)
	g.MustAddEdge(7, 3, 2)
	e := g.Edge(0)
	if e.A != 3 || e.B != 7 {
		t.Errorf("edge not normalised: {%d,%d}", e.A, e.B)
	}
	if !g.HasEdge(3, 7) || !g.HasEdge(7, 3) {
		t.Error("HasEdge should be direction-free")
	}
	if g.HasEdge(3, 4) {
		t.Error("phantom edge")
	}
	if g.EdgeIndex(7, 3) != 0 {
		t.Error("EdgeIndex broken")
	}
	if g.EdgeIndex(1, 2) != -1 {
		t.Error("missing edge should give -1")
	}
}

func TestAdjacencyAndNeighbors(t *testing.T) {
	g := MustNew(4, 5)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(1, 3, 2)
	g.MustAddEdge(2, 3, 3)
	if g.Degree(1) != 2 || g.Degree(4) != 0 {
		t.Errorf("degrees wrong: %d %d", g.Degree(1), g.Degree(4))
	}
	nb := g.Neighbors(1)
	if len(nb) != 2 || nb[0] != 2 || nb[1] != 3 {
		t.Errorf("Neighbors(1) = %v", nb)
	}
	// adjacency cache invalidation
	g.MustAddEdge(1, 4, 4)
	if g.Degree(1) != 3 {
		t.Error("adjacency not invalidated after AddEdge")
	}
}

func TestCompositeDistinctness(t *testing.T) {
	r := rng.New(4)
	g := GNM(r, 50, 200, 8, UniformWeights(r, 8)) // many raw-weight ties
	seen := make(map[uint64]bool)
	for _, e := range g.Edges() {
		c := g.Composite(e)
		if seen[c] {
			t.Fatalf("composite collision on {%d,%d}", e.A, e.B)
		}
		seen[c] = true
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := MustNew(3, 5)
	g.MustAddEdge(1, 2, 1)
	cp := g.Clone()
	cp.MustAddEdge(2, 3, 2)
	if g.M() != 1 || cp.M() != 2 {
		t.Errorf("clone not independent: %d %d", g.M(), cp.M())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if err := cp.Validate(); err != nil {
		t.Error(err)
	}
}
