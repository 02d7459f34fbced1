package congest

import (
	"fmt"
	"reflect"
	"testing"

	"kkt/internal/graph"
	"kkt/internal/rng"
)

// shardTestNet builds a moderately dense random network for executor
// tests: enough nodes that several shards get real work, enough edges that
// rounds carry cross-shard traffic in both directions.
func shardTestNet(t testing.TB, n int, opts ...Option) *Network {
	t.Helper()
	r := rng.New(99)
	g := graph.MustNew(n, 64)
	for v := 2; v <= n; v++ {
		g.MustAddEdge(uint32(v), uint32(r.Intn(v-1)+1), uint64(r.Intn(64)+1))
	}
	for i := 0; i < 2*n; i++ {
		a := uint32(r.Intn(n) + 1)
		b := uint32(r.Intn(n) + 1)
		if a != b && g.EdgeIndex(a, b) < 0 {
			g.MustAddEdge(a, b, uint64(r.Intn(64)+1))
		}
	}
	return NewNetwork(g, opts...)
}

// shardTrace is one run's observable record: per-node receipt logs (value,
// round) in delivery order, session results in await order, and the final
// counters and clock.
type shardTrace struct {
	receipts [][][2]uint64
	results  []uint64
	counters Counters
	now      int64
}

// runShardWorkload drives a fan-out + chain workload on s shards and
// returns the trace. Handlers fan messages out across shard boundaries,
// reply to senders, and complete driver sessions — every effect class the
// sharded merge must keep in single-threaded order.
func runShardWorkload(t *testing.T, shards int) shardTrace {
	t.Helper()
	// Force even tiny rounds through the workers: the chain wave's
	// one-message rounds must exercise the deferred-completion merge, not
	// the inline fallback.
	defer func(min int) { shardMinBatch = min }(shardMinBatch)
	shardMinBatch = 0
	const n = 61 // prime-ish: uneven shard ranges
	nw := shardTestNet(t, n, WithSeed(5), WithShards(shards))
	tr := shardTrace{receipts: make([][][2]uint64, n+1)}

	gossip := Kind("shardtest.gossip")
	chain := Kind("shardtest.chain")
	nw.RegisterHandler(gossip, func(nw *Network, node *NodeState, msg *Message) {
		tr.receipts[node.ID] = append(tr.receipts[node.ID], [2]uint64{msg.U, uint64(nw.Now())})
		if msg.U == 0 {
			return
		}
		for i := range node.Edges {
			nb := node.Edges[i].Neighbor
			if (uint64(nb)+msg.U)%3 != 0 {
				nw.SendU(node.ID, nb, gossip, msg.Session, 16, msg.U-1)
			}
		}
	})
	nw.RegisterHandler(chain, func(nw *Network, node *NodeState, msg *Message) {
		tr.receipts[node.ID] = append(tr.receipts[node.ID], [2]uint64{1 << 32, msg.U})
		if msg.U == 0 {
			nw.CompleteSessionU(msg.Session, uint64(node.ID), nil)
			return
		}
		// forward along one deterministic edge: the chain completes exactly
		// once, at a node the TTL picks.
		next := node.Edges[int(msg.U)%len(node.Edges)].Neighbor
		nw.SendU(node.ID, next, chain, msg.Session, 16, msg.U-1)
	})

	// Wave 1: bounded gossip flood from three roots.
	for _, root := range []NodeID{1, NodeID(n / 2), NodeID(n)} {
		node := nw.Node(root)
		for i := range node.Edges {
			nw.SendU(root, node.Edges[i].Neighbor, gossip, 0, 16, 3)
		}
	}
	if err := nw.Run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	// Wave 2: eight session chains with staggered TTLs; their
	// completion order exercises the deferred-completion merge.
	var sids []SessionID
	for i := 0; i < 8; i++ {
		sid := nw.NewSession(nil)
		sids = append(sids, sid)
		start := NodeID(i*7 + 1)
		nw.SendU(start, nw.Node(start).Edges[0].Neighbor, chain, sid, 16, uint64(2+i%5))
	}
	if err := nw.Run(); err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	for _, sid := range sids {
		u, err := nw.Take(sid).U()
		if err != nil {
			t.Fatal(err)
		}
		tr.results = append(tr.results, u)
	}
	tr.counters = nw.Counters()
	tr.now = nw.Now()
	return tr
}

// TestShardedDeliveryMatchesSingleThreaded is the executor's determinism
// contract at message level: per-node delivery logs (with round stamps),
// session completion results, cost counters and the clock are identical to
// the single-threaded engine at every shard count.
func TestShardedDeliveryMatchesSingleThreaded(t *testing.T) {
	want := runShardWorkload(t, 1)
	if want.counters.Messages == 0 || len(want.results) != 8 {
		t.Fatalf("workload degenerate: %+v", want.counters)
	}
	for _, shards := range []int{2, 3, 4, 8} {
		got := runShardWorkload(t, shards)
		if !reflect.DeepEqual(got.receipts, want.receipts) {
			t.Errorf("shards=%d: per-node receipt logs differ", shards)
		}
		if !reflect.DeepEqual(got.results, want.results) {
			t.Errorf("shards=%d: session results %v, want %v", shards, got.results, want.results)
		}
		if !reflect.DeepEqual(got.counters, want.counters) {
			t.Errorf("shards=%d: counters differ:\n got %v\nwant %v", shards, got.counters, want.counters)
		}
		if got.now != want.now {
			t.Errorf("shards=%d: clock %d, want %d", shards, got.now, want.now)
		}
	}
}

// runShardWorkloadAsync is runShardWorkload under the asynchronous
// scheduler: the same fan-out + chain traffic, but delivered as windowed
// tick groups with seeded delays and per-link FIFO. Every effect class the
// async merge must keep in reference order is exercised — staged sends
// whose FIFO cells bump at the merge, deferred completions, and emissions
// that conflict with the open delivery window.
func runShardWorkloadAsync(t *testing.T, shards int) (shardTrace, uint64) {
	t.Helper()
	defer func(min int) { shardMinBatch = min }(shardMinBatch)
	shardMinBatch = 0 // sparse async groups must still reach the workers
	const n = 61
	nw := shardTestNet(t, n, WithSeed(5), WithShards(shards), WithAsync(4))
	tr := shardTrace{receipts: make([][][2]uint64, n+1)}

	gossip := Kind("shardtest.agossip")
	chain := Kind("shardtest.achain")
	nw.RegisterHandler(gossip, func(nw *Network, node *NodeState, msg *Message) {
		tr.receipts[node.ID] = append(tr.receipts[node.ID], [2]uint64{msg.U, uint64(nw.Now())})
		if msg.U == 0 {
			return
		}
		for i := range node.Edges {
			nb := node.Edges[i].Neighbor
			if (uint64(nb)+msg.U)%3 != 0 {
				nw.SendU(node.ID, nb, gossip, msg.Session, 16, msg.U-1)
			}
		}
	})
	nw.RegisterHandler(chain, func(nw *Network, node *NodeState, msg *Message) {
		tr.receipts[node.ID] = append(tr.receipts[node.ID], [2]uint64{1 << 32, msg.U})
		if msg.U == 0 {
			nw.CompleteSessionU(msg.Session, uint64(node.ID), nil)
			return
		}
		next := node.Edges[int(msg.U)%len(node.Edges)].Neighbor
		nw.SendU(node.ID, next, chain, msg.Session, 16, msg.U-1)
	})

	for _, root := range []NodeID{1, NodeID(n / 2), NodeID(n)} {
		node := nw.Node(root)
		for i := range node.Edges {
			nw.SendU(root, node.Edges[i].Neighbor, gossip, 0, 16, 3)
		}
	}
	if err := nw.Run(); err != nil {
		t.Fatalf("async shards=%d: %v", shards, err)
	}
	var sids []SessionID
	for i := 0; i < 8; i++ {
		sid := nw.NewSession(nil)
		sids = append(sids, sid)
		start := NodeID(i*7 + 1)
		nw.SendU(start, nw.Node(start).Edges[0].Neighbor, chain, sid, 16, uint64(2+i%5))
	}
	if err := nw.Run(); err != nil {
		t.Fatalf("async shards=%d: %v", shards, err)
	}
	for _, sid := range sids {
		u, err := nw.Take(sid).U()
		if err != nil {
			t.Fatal(err)
		}
		tr.results = append(tr.results, u)
	}
	tr.counters = nw.Counters()
	tr.now = nw.Now()
	return tr, nw.AsyncConflicts()
}

// TestAsyncShardedDeliveryMatchesSingleThreaded is the windowed async
// executor's determinism contract at message level: per-node delivery logs
// (with tick stamps), session completion results, cost counters, the
// virtual clock and even the window-conflict count are identical to the
// single-threaded engine at every shard count.
func TestAsyncShardedDeliveryMatchesSingleThreaded(t *testing.T) {
	want, wantConflicts := runShardWorkloadAsync(t, 1)
	if want.counters.Messages == 0 || len(want.results) != 8 {
		t.Fatalf("workload degenerate: %+v", want.counters)
	}
	if wantConflicts == 0 {
		t.Fatal("workload never conflicted with the open window; the contract is untested")
	}
	for _, shards := range []int{2, 3, 4, 8} {
		got, gotConflicts := runShardWorkloadAsync(t, shards)
		if !reflect.DeepEqual(got.receipts, want.receipts) {
			t.Errorf("async shards=%d: per-node receipt logs differ", shards)
		}
		if !reflect.DeepEqual(got.results, want.results) {
			t.Errorf("async shards=%d: session results %v, want %v", shards, got.results, want.results)
		}
		if !reflect.DeepEqual(got.counters, want.counters) {
			t.Errorf("async shards=%d: counters differ:\n got %v\nwant %v", shards, got.counters, want.counters)
		}
		if got.now != want.now {
			t.Errorf("async shards=%d: clock %d, want %d", shards, got.now, want.now)
		}
		if gotConflicts != wantConflicts {
			t.Errorf("async shards=%d: %d window conflicts, want %d", shards, gotConflicts, wantConflicts)
		}
	}
}

// TestManyShardsBeyondByteRange: shard counts past 256 must not truncate
// the per-batch owner table (regression: owners were stored as uint8).
func TestManyShardsBeyondByteRange(t *testing.T) {
	const n = 400
	nw := shardTestNet(t, n, WithSeed(3), WithShards(400))
	kind := Kind("shardtest.wide")
	nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
		if msg.U > 0 {
			for i := range node.Edges {
				nw.SendU(node.ID, node.Edges[i].Neighbor, kind, 0, 8, msg.U-1)
			}
		}
	})
	var total uint64
	for v := 1; v <= n; v++ {
		node := nw.Node(NodeID(v))
		nw.SendU(NodeID(v), node.Edges[0].Neighbor, kind, 0, 8, 2)
	}
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	total = nw.Counters().Messages
	if total == 0 {
		t.Fatal("no traffic")
	}
}

// TestShardedHandlerPanicDeterministic: a handler panic surfaces with the
// value of the globally first panicking delivery, regardless of shard
// count or which worker hit it.
func TestShardedHandlerPanicDeterministic(t *testing.T) {
	defer func(min int) { shardMinBatch = min }(shardMinBatch)
	shardMinBatch = 0 // the 3-message poison round must reach the workers
	run := func(shards int) (val any) {
		nw := shardTestNet(t, 40, WithShards(shards))
		boom := Kind("shardtest.boom")
		nw.RegisterHandler(boom, func(nw *Network, node *NodeState, msg *Message) {
			if msg.U == 1 {
				panic(fmt.Sprintf("boom at %d", node.ID))
			}
		})
		// Several poisoned messages in one round; the lowest batch index
		// (the first send) must win deterministically.
		for _, v := range []NodeID{40, 7, 23} {
			node := nw.Node(v)
			nw.SendU(v, node.Edges[0].Neighbor, boom, 0, 8, 1)
		}
		defer func() { val = recover() }()
		_ = nw.Run()
		return nil
	}
	want := run(1)
	if want == nil {
		t.Fatal("single-threaded run did not panic")
	}
	for _, shards := range []int{2, 4, 7} {
		if got := run(shards); got != want {
			t.Errorf("shards=%d: panic %v, want %v", shards, got, want)
		}
	}
}

// TestShardViewGuards: operations that would break determinism if called
// from a handler fail loudly on the shard view.
func TestShardViewGuards(t *testing.T) {
	defer func(min int) { shardMinBatch = min }(shardMinBatch)
	shardMinBatch = 0 // force even a one-message round through the workers
	nw := shardTestNet(t, 16, WithShards(4))
	kind := Kind("shardtest.guard")
	var guarded any
	nw.RegisterHandler(kind, func(nw *Network, node *NodeState, msg *Message) {
		defer func() { guarded = recover() }()
		nw.NewSession(nil) // must panic on a shard view
	})
	nw.SendU(1, nw.Node(1).Edges[0].Neighbor, kind, 0, 8, 0)
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if guarded == nil {
		t.Fatal("NewSession on a shard view did not panic")
	}
}
