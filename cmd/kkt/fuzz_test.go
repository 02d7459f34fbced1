package main

import (
	"testing"

	"kkt/internal/faultplan"
	"kkt/internal/graph"
	"kkt/internal/rng"
	"kkt/internal/spanning"
)

// FuzzParseChurn feeds arbitrary --churn strings through the grammar and
// the plan bounds, then compiles every accepted plan small enough to run
// (Approx() ≤ 256) against a fixed 32-node graph. Nothing may panic. The
// seed corpus in testdata/fuzz/FuzzParseChurn holds the two plans that
// crash or hang serve when counts are unbounded.
func FuzzParseChurn(f *testing.F) {
	f.Add("tree-deletes=3,deletes=2,inserts=2,weight-changes=1")
	f.Add("partitions=2,partition-size=6,heals=4,bursts=1,burst-radius=2,bridge-deletes=2,hub-deletes=2")
	r := rng.New(5)
	g := graph.GNM(r, 32, 80, 64, graph.UniformWeights(r.Split(), 64))
	forest := spanning.Kruskal(g)
	f.Fuzz(func(t *testing.T, s string) {
		p, err := parseChurn(s)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("parseChurn(%q) accepted a plan Validate rejects: %v", s, err)
		}
		if p.Approx() > 256 {
			return
		}
		for _, ev := range faultplan.Compile(p, g, forest, 1) {
			if ev.A < 1 || int(ev.A) > g.N || ev.B < 1 || int(ev.B) > g.N || ev.A == ev.B {
				t.Fatalf("plan %q compiled a bad event %+v", s, ev)
			}
		}
	})
}
