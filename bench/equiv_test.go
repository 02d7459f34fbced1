package main

import (
	"context"
	"testing"
	"time"

	"kkt/internal/harness"
	"kkt/internal/serve"
)

// TestBuildsMatchHarness ties the bench to what `kkt run` executes: every
// build shape at n = 2048 gives the same cost, forest and verdict as
// harness.RunTrialShards at one shard.
func TestBuildsMatchHarness(t *testing.T) {
	const n = 2048
	shapes := []buildTrial{
		{algo: harness.AlgoMSTBuildAdaptive, n: n, m: 3 * n, graph: 7, seed: 7},
		{algo: harness.AlgoMSTBuildAdaptive, n: n, m: 3 * n, async: true, graph: 7, seed: 7},
		{algo: harness.AlgoMSTBuildAdaptive, n: n, m: n * n / 8, graph: 7, seed: 7},
		{algo: harness.AlgoGHS, n: n, m: n * n / 8, graph: 7, seed: 7},
	}
	for _, tr := range shapes {
		o, err := tr.run(nil)
		if err != nil {
			t.Fatalf("%+v: %v", tr, err)
		}
		sched := harness.SchedSync
		if tr.async {
			sched = harness.SchedAsync
		}
		spec := harness.Spec{Name: "bench-equiv", Family: harness.FamilyGNM, N: tr.n, M: tr.m, Sched: sched, Algo: tr.algo}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		want, _, err := harness.RunTrialShards(spec, tr.seed, 1)
		if err != nil {
			t.Fatalf("%+v: harness: %v", tr, err)
		}
		got := harness.TrialMetrics{Messages: o.messages, Bits: o.bits, Time: o.simTime, ForestEdges: o.forestEdges, Valid: o.valid}
		if got.Messages != want.Messages || got.Bits != want.Bits || got.Time != want.Time ||
			got.ForestEdges != want.ForestEdges || got.Valid != want.Valid || !got.Valid {
			t.Errorf("%+v: bench messages=%d bits=%d time=%d forest=%d valid=%v, harness %d %d %d %d %v", tr,
				got.Messages, got.Bits, got.Time, got.ForestEdges, got.Valid,
				want.Messages, want.Bits, want.Time, want.ForestEdges, want.Valid)
		}
	}
}

// TestObserverParity checks that attaching the bench's tracer changes
// nothing the program computes: for every workload at small size the
// traced pass simulates the same messages, bits and scheduler time and
// reaches the same serve digest as the untraced one, and the tracer's own
// ledger agrees. Serve's untraced pass carries a ledger-only observer, so
// its digest is also checked against a daemon with no observer at all.
func TestObserverParity(t *testing.T) {
	for name, w := range smallWorkloads() {
		off, on := w.pass(false), w.pass(true)
		if off.failed != 0 || on.failed != 0 {
			t.Errorf("%s: failed untraced=%d traced=%d", name, off.failed, on.failed)
		}
		if off.messages == 0 || off.messages != on.messages || off.bits != on.bits || off.simTime != on.simTime ||
			off.digest != on.digest || off.repairs != on.repairs {
			t.Errorf("%s: untraced %d/%d/%d %s, traced %d/%d/%d %s", name,
				off.messages, off.bits, off.simTime, off.digest, on.messages, on.bits, on.simTime, on.digest)
		}
		l := on.layers
		if l["congest.messages"] != float64(on.messages) || l["congest.bits"] != float64(on.bits) || l["congest.sim_time"] != float64(on.simTime) {
			t.Errorf("%s: tracer ledger %v/%v/%v, protocol reports %d/%d/%d", name,
				l["congest.messages"], l["congest.bits"], l["congest.sim_time"], on.messages, on.bits, on.simTime)
		}
		if w.serve != nil {
			d, err := serve.New(w.serve.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum, err := d.Run(context.Background())
			if err != nil || sum.Digest != off.digest {
				t.Errorf("%s: daemon without observer: digest %s err %v, bench %s", name, sum.Digest, err, off.digest)
			}
		}
	}
}

func TestUpdateClock(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	var c updateClock
	c.begin(at(0))
	// Epoch 1: four events; the first wave resolves one, the second none,
	// the third the rest.
	c.wave(at(10), 3)
	c.wave(at(15), 3)
	c.wave(at(40), 0)
	c.epoch(at(50), 4)
	// Epoch 2: two events resolved by one wave.
	c.wave(at(70), 0)
	c.epoch(at(80), 6)
	want := []float64{10, 40, 40, 40, 20, 20}
	if len(c.updates) != len(want) {
		t.Fatalf("updates %v, want %v", c.updates, want)
	}
	for i := range want {
		if c.updates[i] != want[i] {
			t.Fatalf("updates %v, want %v", c.updates, want)
		}
	}
	if c.epochs[0] != 50 || c.epochs[1] != 30 || c.waves[0] != 10 || c.waves[3] != 20 {
		t.Errorf("epochs %v waves %v", c.epochs, c.waves)
	}
}

// TestQuantileMatchesPython pins quantile to Python's
// statistics.quantiles(data, n=4), the spread rule's definition.
func TestQuantileMatchesPython(t *testing.T) {
	data := []float64{7, 1, 3, 10, 2, 9, 4, 8, 6, 5}
	for p, want := range map[float64]float64{0.25: 2.75, 0.5: 5.5, 0.75: 8.25, 0: 1, 1: 10} {
		if got := quantile(data, p); got != want {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := quantile([]float64{4}, 0.99); got != 4 {
		t.Errorf("single sample p99 = %v", got)
	}
}
