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

// FuzzParseLadder feeds arbitrary --ladder strings through the grammar.
// Nothing may panic, and every accepted ladder must be a non-empty list of
// at most maxLadderRungs sizes in [1, maxLadderSize]. The seed corpus in
// testdata/fuzz/FuzzParseLadder holds the three inputs that once panicked
// (a 10^15-rung ladder), tried to allocate 800 MB (10^8 rungs) or
// overflowed a k-suffixed size to a negative n.
func FuzzParseLadder(f *testing.F) {
	f.Add("256:4096:5")
	f.Add("64,128, 256")
	f.Fuzz(func(t *testing.T, s string) {
		sizes, err := parseLadder(s)
		if err != nil {
			return
		}
		if len(sizes) == 0 || len(sizes) > maxLadderRungs {
			t.Fatalf("parseLadder(%q) accepted %d sizes, want 1..%d", s, len(sizes), maxLadderRungs)
		}
		for _, n := range sizes {
			if n < 1 || n > maxLadderSize {
				t.Fatalf("parseLadder(%q) accepted size %d outside [1,%d]", s, n, maxLadderSize)
			}
		}
	})
}
