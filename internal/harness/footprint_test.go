package harness

import "testing"

// TestContinuationDriversCutPeakGoroutines is the footprint gate of the
// continuation driver model, measured in-process on builds small enough
// for a test: the first phase's one-per-node fan-out lives in pooled heap
// tasks, all live at once, and a repair trial's wave repairs each run as
// one task.
func TestContinuationDriversCutPeakGoroutines(t *testing.T) {
	for _, algo := range []string{AlgoMSTBuildAdaptive, AlgoSTBuild, AlgoGHS} {
		spec := Spec{
			Name:   algo + "/gnm-512",
			Family: FamilyGNM, N: 512,
			Sched: SchedSync,
			Algo:  algo,
		}
		t.Run(spec.Name, func(t *testing.T) {
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			m, _, err := RunTrialShards(spec, 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Valid {
				t.Fatal("build invalid")
			}
			if m.PeakDriverTasks < spec.N {
				t.Errorf("peaked at %d tasks, want >= %d (the phase-1 fan-out)", m.PeakDriverTasks, spec.N)
			}
			if m.PeakLiveDrivers < spec.N {
				t.Errorf("peaked at %d live drivers, want >= %d", m.PeakLiveDrivers, spec.N)
			}
		})
	}
	for _, name := range []string{"mst-repair/gnm/async", "st-repair/ring/sync"} {
		spec, ok := Builtin().Get(name)
		if !ok {
			t.Fatalf("scenario %s not registered", name)
		}
		t.Run(name, func(t *testing.T) {
			m, _, err := RunTrialShards(spec, 5, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !m.Valid {
				t.Fatal("repaired forest invalid")
			}
			if m.PeakDriverTasks < 1 {
				t.Errorf("peaked at %d tasks, want >= 1", m.PeakDriverTasks)
			}
		})
	}
}
