package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"kkt/internal/faultplan"
)

// stormVariant is one cell of the storm property sweep.
type stormVariant struct {
	family string
	sched  string
	algo   string
	n      int
	plan   faultplan.Plan
	wave   int
}

// stormVariants crosses families, schedulers, algorithms and plan shapes.
// Weight changes are only legal for the weighted MSF. The grid and ring
// cells carry only the uniform background block, the plan shape of the
// suite's non-storm repair scenarios.
func stormVariants() []stormVariant {
	calm := faultplan.Plan{
		TreeEdgeDeletes: 4, Deletes: 4, Inserts: 4,
	}
	storm := faultplan.Plan{
		Partitions: 2, PartitionSize: 6, Heals: 6,
		Bursts: 1, BurstRadius: 1,
		BridgeDeletes: 2, TreeEdgeDeletes: 4, HubDeletes: 2,
		Deletes: 6, Inserts: 6,
	}
	withWeights := storm
	withWeights.WeightChanges = 6
	background := faultplan.Plan{Deletes: 6, Inserts: 6, WeightChanges: 6}
	backgroundST := faultplan.Plan{Deletes: 6, Inserts: 6}

	return []stormVariant{
		{FamilyGNM, SchedSync, AlgoMSTRepair, 32, withWeights, 8},
		{FamilyGNM, SchedAsync, AlgoMSTRepair, 32, withWeights, 8},
		{FamilyExpander, SchedSync, AlgoMSTRepair, 48, calm, 4},
		{FamilyExpander, SchedSync, AlgoMSTRepair, 48, withWeights, 8},
		{FamilyGNM, SchedSync, AlgoSTRepair, 32, storm, 8},
		{FamilyGNM, SchedAsync, AlgoSTRepair, 32, storm, 8},
		{FamilyExpander, SchedSync, AlgoSTRepair, 48, calm, 4},
		{FamilyGrid, SchedSync, AlgoMSTRepair, 49, background, 4},
		{FamilyRing, SchedAsync, AlgoSTRepair, 32, backgroundST, 4},
	}
}

// TestStormPropertyManySeeds is the concurrent-repair correctness sweep:
// across 72 (variant, seed) cells, a generated fault plan — partitions,
// bursts, targeted deletions, heals, uniform background faults,
// overlapping repair waves — must leave
// a structure that validates against a from-scratch reference (Kruskal MSF
// for the weighted algorithms, union-find spanning forest for the
// unweighted ones; the check runs inside the trial). Each cell also runs
// at 1 and 4 shards and the serialized metrics must be byte-identical,
// the report-level determinism contract under concurrent waves.
func TestStormPropertyManySeeds(t *testing.T) {
	const seedsPerVariant = 8
	variants := stormVariants()
	if len(variants)*seedsPerVariant < 50 {
		t.Fatalf("sweep shrank below 50 cells: %d", len(variants)*seedsPerVariant)
	}
	for vi, v := range variants {
		plan := v.plan
		spec := Spec{
			Name:   fmt.Sprintf("prop/%s/%s/%s/%d", v.algo, v.family, v.sched, vi),
			Family: v.family, N: v.n,
			Sched:    v.sched,
			Algo:     v.algo,
			Plan:     &plan,
			Wave:     v.wave,
			Watchdog: &WatchdogSpec{StallTime: 1 << 21, MaxTime: 1 << 33},
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("variant %d: %v", vi, err)
		}
		for s := 0; s < seedsPerVariant; s++ {
			seed := uint64(vi)<<32 | uint64(s+1)*0x9e3779b9
			m1, _, err := RunTrialShards(spec, seed, 1)
			if err != nil {
				t.Fatalf("%s seed %d: %v", spec.Name, seed, err)
			}
			if !m1.Valid {
				t.Errorf("%s seed %d: storm left an invalid structure", spec.Name, seed)
				continue
			}
			if m1.Repairs == 0 {
				t.Errorf("%s seed %d: plan launched no repairs — sweep lost its teeth", spec.Name, seed)
			}
			m4, _, err := RunTrialShards(spec, seed, 4)
			if err != nil {
				t.Fatalf("%s seed %d shards=4: %v", spec.Name, seed, err)
			}
			b1, _ := json.Marshal(m1)
			b4, _ := json.Marshal(m4)
			if !bytes.Equal(b1, b4) {
				t.Errorf("%s seed %d: sharded metrics diverge:\n 1: %s\n 4: %s", spec.Name, seed, b1, b4)
			}
		}
	}
}

// TestStormAmortizedAccounting pins the cost-accounting surface the storm
// adds to TrialMetrics: repair counts, wave counts and the per-repair
// amortization are internally consistent.
func TestStormAmortizedAccounting(t *testing.T) {
	spec := Spec{
		Name:   "prop/accounting",
		Family: FamilyGNM, N: 48,
		Sched: SchedSync,
		Algo:  AlgoMSTRepair,
		Plan: &faultplan.Plan{
			Partitions: 2, PartitionSize: 6, Heals: 6,
			TreeEdgeDeletes: 6, Deletes: 6, Inserts: 6, WeightChanges: 6,
		},
		Wave: 8,
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	m, _, err := RunTrialShards(spec, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Valid {
		t.Fatal("storm left an invalid MSF")
	}
	if m.Repairs <= 0 || m.RepairWaves <= 0 {
		t.Fatalf("missing storm accounting: repairs=%d waves=%d", m.Repairs, m.RepairWaves)
	}
	if m.RepairWaves > m.Repairs {
		t.Fatalf("more waves than repairs: %d > %d", m.RepairWaves, m.Repairs)
	}
	if m.MsgsPerRepair <= 0 || m.BitsPerRepair <= 0 {
		t.Fatalf("amortized costs not populated: msgs/repair=%v bits/repair=%v",
			m.MsgsPerRepair, m.BitsPerRepair)
	}
	wantMsgs := float64(m.Messages) / float64(m.Repairs)
	if diff := m.MsgsPerRepair - wantMsgs; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("msgs/repair %v inconsistent with messages/repairs = %v", m.MsgsPerRepair, wantMsgs)
	}
}
