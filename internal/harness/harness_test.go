package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"kkt/internal/faultplan"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestSpecValidate(t *testing.T) {
	good := Spec{Name: "x", Family: FamilyGNM, N: 16, Sched: SchedSync, Algo: AlgoFlood}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Family: FamilyGNM, N: 16, Sched: SchedSync, Algo: AlgoFlood},                                                        // no name
		{Name: "x", Family: "torus", N: 16, Sched: SchedSync, Algo: AlgoFlood},                                               // bad family
		{Name: "x", Family: FamilyGrid, N: 15, Sched: SchedSync, Algo: AlgoFlood},                                            // non-square grid
		{Name: "x", Family: FamilyGNM, N: 16, Sched: "lockstep", Algo: AlgoFlood},                                            // bad sched
		{Name: "x", Family: FamilyGNM, N: 16, Sched: SchedSync, Algo: "dijkstra"},                                            // bad algo
		{Name: "x", Family: FamilyGNM, N: 16, Sched: SchedSync, Algo: AlgoMSTRepair},                                         // repair without a plan
		{Name: "x", Family: FamilyGNM, N: 16, Sched: SchedSync, Algo: AlgoMSTRepair, Plan: &faultplan.Plan{}},                // repair with an empty plan
		{Name: "x", Family: FamilyGNM, N: 16, Sched: SchedSync, Algo: AlgoFlood, Plan: &faultplan.Plan{Deletes: 1}},          // plan on a build
		{Name: "x", Family: FamilyGNM, N: 16, Sched: SchedSync, Algo: AlgoSTRepair, Plan: &faultplan.Plan{WeightChanges: 1}}, // weighted plan on st
		{Name: "x", Family: FamilyExpander, N: 16, Degree: 5, Sched: SchedSync, Algo: AlgoFlood},                             // odd expander degree
		{Name: "x", Family: FamilyGNM, N: 4, Sched: SchedSync, Algo: AlgoFlood},                                              // defaulted m=3n exceeds n(n-1)/2
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, s)
		}
	}
}

func TestRegistryLookup(t *testing.T) {
	reg := NewRegistry()
	spec := Spec{Name: "a/b/c", Family: FamilyRing, N: 8, Sched: SchedSync, Algo: AlgoFlood}
	if err := reg.Register(spec); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(spec); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	got, ok := reg.Get("a/b/c")
	if !ok || got.Name != "a/b/c" {
		t.Fatalf("lookup failed: %+v ok=%v", got, ok)
	}
	if _, ok := reg.Get("missing"); ok {
		t.Fatal("lookup of missing scenario succeeded")
	}
	if names := reg.Names(); len(names) != 1 || names[0] != "a/b/c" {
		t.Fatalf("names = %v", names)
	}
	if m := reg.Match("b/"); len(m) != 1 {
		t.Fatalf("match = %v", m)
	}
	if m := reg.Match("zzz"); len(m) != 0 {
		t.Fatalf("match zzz = %v", m)
	}
}

func TestBuiltinSuiteShape(t *testing.T) {
	reg := Builtin()
	specs := reg.Specs()
	if len(specs) < 12 {
		t.Fatalf("builtin suite has %d scenarios, want >= 12", len(specs))
	}
	families := map[string]bool{}
	scheds := map[string]bool{}
	repair, build, baseline := false, false, false
	for _, s := range specs {
		families[s.Family] = true
		scheds[s.Sched] = true
		switch s.Algo {
		case AlgoMSTRepair, AlgoSTRepair:
			repair = true
		case AlgoMSTBuildAdaptive, AlgoMSTBuildFixed, AlgoSTBuild:
			build = true
		case AlgoGHS, AlgoFlood:
			baseline = true
		}
	}
	if len(families) < 3 {
		t.Errorf("suite covers %d families, want >= 3", len(families))
	}
	if !scheds[SchedSync] || !scheds[SchedAsync] {
		t.Errorf("suite does not cover both schedulers: %v", scheds)
	}
	if !repair || !build || !baseline {
		t.Errorf("suite missing a headline path: repair=%v build=%v baseline=%v", repair, build, baseline)
	}
}

// TestSameSeedSameMetrics runs a mixed slate of scenarios twice with the
// same seed at different worker counts and demands identical metrics.
// Under -race this also proves the pool is race-free.
func TestSameSeedSameMetrics(t *testing.T) {
	reg := Builtin()
	names := []string{
		"mst-build/gnm/sync",
		"mst-repair/gnm/async",
		"st-repair/ring/sync",
		"flood/grid/async",
	}
	a, err := RunNamed(reg, names, RunConfig{Trials: 3, Seed: 99, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunNamed(reg, names, RunConfig{Trials: 3, Seed: 99, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Compare the serialized form: that is the determinism contract.
	// Footprint fields (HeapSysMB and friends) are json:"-" precisely
	// because they reflect process state, not the simulated protocol.
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if !bytes.Equal(aj, bj) {
		t.Fatalf("same seed, different metrics:\n%s\nvs\n%s", aj, bj)
	}
	for _, res := range a {
		for _, tr := range res.Trials {
			if tr.Error != "" {
				t.Errorf("%s trial %d: %s", res.Spec.Name, tr.Trial, tr.Error)
			}
			if !tr.Valid {
				t.Errorf("%s trial %d (seed %d): reference check failed", res.Spec.Name, tr.Trial, tr.Seed)
			}
		}
	}
}

func TestAggregate(t *testing.T) {
	agg := aggregate([]uint64{30, 10, 20, 40})
	if agg.Mean != 25 || agg.Min != 10 || agg.Max != 40 {
		t.Fatalf("aggregate = %+v", agg)
	}
	if agg.P50 != 20 {
		t.Errorf("p50 = %d, want 20", agg.P50)
	}
	if agg.P99 != 40 {
		t.Errorf("p99 = %d, want 40", agg.P99)
	}
	if z := aggregate(nil); z != (Aggregate{}) {
		t.Errorf("empty aggregate = %+v", z)
	}
}

// TestBenchReportGolden pins the BENCH_*.json schema: a tiny suite run
// with a fixed seed must marshal to exactly the checked-in bytes. Run
// with -update to regenerate after an intentional schema change.
func TestBenchReportGolden(t *testing.T) {
	reg := NewRegistry()
	reg.MustRegister(Spec{
		Name:        "flood/ring/sync",
		Description: "golden: flooding on a tiny ring",
		Family:      FamilyRing, N: 8,
		Sched: SchedSync,
		Algo:  AlgoFlood,
	})
	reg.MustRegister(Spec{
		Name:        "mst-repair/gnm/sync",
		Description: "golden: small repair storm",
		Family:      FamilyGNM, N: 12, M: 20,
		Sched: SchedSync,
		Algo:  AlgoMSTRepair,
		Plan:  &faultplan.Plan{Deletes: 2, Inserts: 2, WeightChanges: 1},
	})
	cfg := RunConfig{Trials: 2, Seed: 7, Workers: 2}
	results := RunAll(reg.Specs(), cfg)
	report := NewReport("golden", cfg, results)
	got, err := report.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "bench_golden.json")
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run 'go test ./internal/harness -update' to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("bench report deviates from golden file %s;\ngot:\n%s\nrun with -update if the schema change is intentional", path, got)
	}
}
