package tree

import (
	"testing"

	"kkt/internal/race"

	"kkt/internal/congest"
)

// TestElectionWaveAllocs pins one global election wave on a 256-node
// marked path at constant allocations: per-node election states live in
// the protocol's reusable buffer, token receipts are edge-index bitmasks,
// and the session machinery recycles slots. The budget covers the driver
// Run and the ElectResult assembly; per-node or per-token churn on a
// 256-node path would exceed it by an order of magnitude.
func TestElectionWaveAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	const n = 256
	_, pr := pathNet(t, n)
	wave := func() {
		res, err := pr.ElectAll()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Leaders) != 1 {
			t.Errorf("leaders = %v, want one", res.Leaders)
		}
	}
	wave() // warm the election buffer and session slots
	avg := testing.AllocsPerRun(5, wave)
	if avg > 48 {
		t.Errorf("election wave on %d nodes: %.1f allocs, budget 48 — per-node churn reintroduced?", n, avg)
	}
}

// TestUnboxedBroadcastEchoAllocs pins a one-word broadcast-and-echo (the
// TestOut shape: words folded as they arrive) with an OnDown hook on a
// 256-node marked path at constant allocations: per-node state slots,
// slot-indexed specs, echo words in Message.U, an Emit value instead of a
// per-node closure, and CompleteSessionU/Wake.U end to end.
func TestUnboxedBroadcastEchoAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	const n = 256
	nw, pr := pathNet(t, n)
	spec := sumSpec()
	spec.OnDown = func(node *congest.NodeState, down any, emit Emit) {}
	wave := func() {
		got, err := await(nw, pr.StartBroadcastEcho(1, spec))
		if err != nil {
			t.Fatal(err)
		}
		if want := uint64(n*(n+1)) / 2; got != want {
			t.Errorf("sum = %d, want %d", got, want)
		}
	}
	wave() // warm the session slots and message free list
	avg := testing.AllocsPerRun(5, wave)
	if avg > 32 {
		t.Errorf("unboxed B&E on %d nodes: %.1f allocs, budget 32 — per-node churn reintroduced?", n, avg)
	}
}

// TestWideBroadcastEchoAllocs pins a MaxWidth-word broadcast-and-echo on
// a 256-node marked path at zero allocations: echo blocks recycle through
// the protocol's free lists, so a warm wave draws no new ones.
func TestWideBroadcastEchoAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	const n = 256
	nw, pr := pathNet(t, n)
	spec := wideSpec(3)
	wave := func() {
		if _, err := await(nw, pr.StartBroadcastEcho(1, spec)); err != nil {
			t.Fatal(err)
		}
	}
	wave() // warm the session slots, message and block free lists
	avg := testing.AllocsPerRun(5, wave)
	if avg != 0 {
		t.Errorf("wide B&E on %d nodes: %.1f allocs, want 0 — per-node churn reintroduced?", n, avg)
	}
}

// TestFanoutWarmPhaseAllocs pins a warm Borůvka fan-out phase at zero
// allocations: once the first phase has built the searches, their task
// wrappers and the task slice, and warmed the engine's task pool and
// session slots, a phase of 256 searches that park, resume and add no
// edge allocates nothing — arming, spawning, joining, the barrier and the
// cost bracket included.
func TestFanoutWarmPhaseAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	const n = 256
	nw, pr := pathNet(t, n)
	leaders := make([]congest.NodeID, n)
	for i := range leaders {
		leaders[i] = congest.NodeID(i + 1)
	}
	fan := NewFanout(pr, "test", "pick", func() *pickSearch { return &pickSearch{nw: nw} }, (*pickSearch).Arm)
	phase := 0
	runPhase := func() {
		phase++
		fan.Begin()
		if _, _, err := fan.Run(phase, leaders); err != nil {
			t.Error(err)
		}
	}
	runPhase() // warm: searches, task bodies, task pool, session slots
	avg := testing.AllocsPerRun(5, runPhase)
	if avg != 0 {
		t.Errorf("warm fan-out phase of %d searches: %.1f allocs, want 0", n, avg)
	}
}
