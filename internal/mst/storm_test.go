package mst

import (
	"testing"

	"kkt/internal/admit"
	"kkt/internal/congest"
	"kkt/internal/faultplan"
	"kkt/internal/spanning"
)

// TestStormReweightOutOfRangeSkipped: a weight change beyond the
// network's raw range is refused by SetRawWeight, so the launcher must
// resolve it inline as skipped — the tree edge keeps its mark and its
// weight, and no repair launches at the old weight.
func TestStormReweightOutOfRangeSkipped(t *testing.T) {
	g, nw, pr := repairSetup(t, 7, 16, 40)
	e := g.Edge(spanning.Kruskal(g)[0])
	a, b := congest.NodeID(e.A), congest.NodeID(e.B)
	ev := faultplan.Event{Op: faultplan.OpWeightChange, A: e.A, B: e.B, Raw: nw.MaxRaw() + 1}

	stats, err := admit.Run(nw, []faultplan.Event{ev}, NewStormLauncher(nw, pr, DefaultRepair(7)), admit.Config{Wave: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Repairs != 0 || stats.Skipped != 1 || stats.Actions[admit.Skipped] != 1 {
		t.Errorf("stats = %+v, want one skipped event and no repair", stats)
	}
	for _, he := range []*congest.HalfEdge{nw.Node(a).EdgeTo(b), nw.Node(b).EdgeTo(a)} {
		if !he.Marked || he.Raw != e.Raw {
			t.Errorf("edge {%d,%d} end: marked=%v raw=%d, want marked with raw %d", a, b, he.Marked, he.Raw, e.Raw)
		}
	}
}
