package harness

import (
	"testing"

	"kkt/internal/faultplan"
)

// BenchmarkRepairStorm measures one full repair-storm trial on G(48, 144)
// under the async scheduler: forest setup, compiling a uniform fault plan
// of 8 deletes, 8 inserts and 8 weight changes against the generated
// graph, draining it through the admission queue against the maintained
// MSF, and the reference check.
func BenchmarkRepairStorm(b *testing.B) { benchRepairStorm(b, 48) }

// BenchmarkRepairStorm1024 is BenchmarkRepairStorm at n = 1024 with the
// same fault plan, so the pair shows how a repair's cost grows with n.
func BenchmarkRepairStorm1024(b *testing.B) { benchRepairStorm(b, 1024) }

func benchRepairStorm(b *testing.B, n int) {
	spec := Spec{
		Name:   "bench/mst-repair",
		Family: FamilyGNM, N: n,
		Sched: SchedAsync,
		Algo:  AlgoMSTRepair,
		Plan:  &faultplan.Plan{Deletes: 8, Inserts: 8, WeightChanges: 8},
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
