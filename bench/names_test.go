package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"kkt/internal/harness"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bf
}

// smallWorkloads are the four workloads' shapes at sizes that run in well
// under a second each.
func smallWorkloads() map[string]workload {
	return map[string]workload{
		"build-mst-100k":      {trials: []buildTrial{{algo: harness.AlgoMSTBuildAdaptive, n: 2000, m: 6000, graph: graphSeed, seed: 1}}},
		"build-mst-async-50k": {trials: []buildTrial{{algo: harness.AlgoMSTBuildAdaptive, n: 2000, m: 6000, async: true, graph: graphSeed, seed: 1}}},
		"build-dense-ladder":  {trials: denseLadder([]int{32, 64}, 1)},
		"serve-churn-20k":     {serve: churnSession(1000, 3000, 256, 1)},
	}
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := loadBenchmark(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n %+v\ncode declares\n %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the code's perLayer table")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	seen := map[string]bool{}
	for _, n := range append(append(names, metricNames(endToEnd)...), metricNames(perLayer)...) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
}

// TestMetricNamesContract runs every workload at reduced size, untraced
// and traced, and checks that each run emits exactly the names
// BENCHMARK.json declares for its mode, with the declared units, and
// that every declared per-layer metric is measured by some workload.
func TestMetricNamesContract(t *testing.T) {
	bf := loadBenchmark(t)
	measured := map[string]bool{}
	for name, w := range smallWorkloads() {
		for _, traced := range []bool{false, true} {
			r := measure(w, 0, traced)
			res := r.result(traced)
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			var got []string
			for n := range res.Metrics {
				got = append(got, n)
			}
			sort.Strings(got)
			if wantNames := sorted(metricNames(want)); !reflect.DeepEqual(got, wantNames) {
				t.Errorf("%s traced=%v emits %v, BENCHMARK.json declares %v", name, traced, got, wantNames)
			}
			for _, m := range want {
				if u := res.Metrics[m.Name].Unit; u != m.Unit {
					t.Errorf("%s: %s in %q, declared %q", name, m.Name, u, m.Unit)
				}
			}
			if traced {
				for _, p := range r.passes {
					for n := range p.layers {
						measured[n] = true
					}
				}
			}
		}
	}
	for _, m := range bf.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is declared but no workload measures it", m.Name)
		}
	}
}

func metricNames(ms []metric) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	return out
}

func sorted(s []string) []string {
	sort.Strings(s)
	return s
}
