package congest

import (
	"testing"

	"kkt/internal/race"

	"kkt/internal/graph"
)

// allocBudget fails the test when avg exceeds budget. The budgets are
// small constants sized to cover driver spawning (goroutine, channels)
// plus slack — far below the message or node counts involved — so any
// reintroduced per-message or per-node churn trips them loudly.
func allocBudget(t *testing.T, what string, avg, budget float64) {
	t.Helper()
	if avg > budget {
		t.Errorf("%s: %.1f allocs, budget %.1f — per-message/per-node churn reintroduced?", what, avg, budget)
	}
}

// TestAsyncDeliverPathAllocs pins the asynchronous send->schedule->deliver
// cycle at zero steady-state allocations: after one warm-up wave the
// Message free list, calendar buckets and per-link FIFO cells are all
// recycled, so 512 deliveries must cost no more than the constant driver
// setup.
func TestAsyncDeliverPathAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	const msgs = 512
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g, WithAsync(4), WithSeed(7))
	kind := Kind("alloc.async")
	nw.RegisterHandler(kind, func(*Network, *NodeState, *Message) {})
	wave := func() {
		for i := 0; i < msgs; i++ {
			nw.Send(1, 2, kind, 0, 8, nil)
		}
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
	}
	wave() // warm the free list and calendar buckets
	avg := testing.AllocsPerRun(5, wave)
	allocBudget(t, "async deliver wave (512 messages)", avg, 32)
}

// TestSyncDeliverPathAllocs is the synchronous-scheduler counterpart.
func TestSyncDeliverPathAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	const msgs = 512
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g)
	kind := Kind("alloc.sync")
	nw.RegisterHandler(kind, func(*Network, *NodeState, *Message) {})
	wave := func() {
		for i := 0; i < msgs; i++ {
			nw.Send(1, 2, kind, 0, 8, nil)
		}
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
	}
	wave()
	avg := testing.AllocsPerRun(5, wave)
	allocBudget(t, "sync deliver wave (512 messages)", avg, 32)
}

// TestSessionLifecycleAllocs pins the session slot table: creating,
// completing and taking sessions recycles slots instead of allocating
// session records or map entries.
func TestSessionLifecycleAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	const sessions = 256
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g)
	kind := Kind("alloc.sess")
	nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
		nw.CompleteSessionU(msg.Session, msg.U, nil)
	})
	wave := func() {
		for i := 0; i < sessions; i++ {
			sid := nw.NewSession(nil)
			nw.SendU(1, 2, kind, sid, 8, uint64(i))
			if err := nw.Run(); err != nil {
				t.Fatal(err)
			}
			if u, err := nw.Take(sid).U(); err != nil || u != uint64(i) {
				t.Errorf("session %d: u=%d err=%v", i, u, err)
			}
		}
	}
	wave()
	avg := testing.AllocsPerRun(5, wave)
	allocBudget(t, "session lifecycle (256 unboxed sessions)", avg, 32)
}
