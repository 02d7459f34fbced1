package harness

import "testing"

// BenchmarkRepairStorm measures one full repair-storm trial — forest
// setup, a Delete/Insert/WeightChange fault script against the maintained
// MSF under the async scheduler, and the reference check — on G(48, 144).
func BenchmarkRepairStorm(b *testing.B) { benchRepairStorm(b, 48) }

// BenchmarkRepairStorm1024 is BenchmarkRepairStorm at n = 1024 with the
// same fault script, so the pair shows how a repair's cost grows with n.
func BenchmarkRepairStorm1024(b *testing.B) { benchRepairStorm(b, 1024) }

func benchRepairStorm(b *testing.B, n int) {
	spec := Spec{
		Name:   "bench/mst-repair",
		Family: FamilyGNM, N: n,
		Sched:  SchedAsync,
		Algo:   AlgoMSTRepair,
		Faults: FaultScript{Deletes: 8, Inserts: 8, WeightChanges: 8},
	}
	if err := spec.Validate(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunTrial(spec, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}
