package congest

import (
	"testing"

	"kkt/internal/race"

	"kkt/internal/graph"
)

// recObserver records every hook invocation for assertions.
type recObserver struct {
	rounds    int
	messages  uint64
	bits      uint64
	kinds     int
	opened    int
	done      int
	failed    int
	phases    []PhaseCosts
	counts    map[string]uint64
	shardLoad uint64
}

func (r *recObserver) RoundEnd(now int64, messages, bits uint64, byKind []KindCount, shardLoad []uint64) {
	r.rounds++
	r.messages = messages
	r.bits = bits
	r.kinds = len(byKind)
	r.shardLoad = 0
	for _, l := range shardLoad {
		r.shardLoad += l
	}
}
func (r *recObserver) SessionOpen(serial uint64, now int64) { r.opened++ }
func (r *recObserver) SessionDone(serial uint64, now int64, failed bool) {
	r.done++
	if failed {
		r.failed++
	}
}
func (r *recObserver) PhaseStart(proto string, phase, fragments int, now int64) {}
func (r *recObserver) PhaseEnd(proto string, phase int, now int64, cost PhaseCosts) {
	r.phases = append(r.phases, cost)
}
func (r *recObserver) RepairStart(op string, now int64) {}
func (r *recObserver) RepairDone(op, action string, now int64, rounds int64, messages, bits uint64) {
}
func (r *recObserver) Count(name string, delta uint64) {
	if r.counts == nil {
		r.counts = make(map[string]uint64)
	}
	r.counts[name] += delta
}

// TestNilObserverDeliverAllocs pins the disabled-observer contract: with no
// observer attached (the default), the delivery loop's only observability
// cost is a nil check, so a warm 512-message wave stays within the same
// constant budget as the plain delivery tests.
func TestNilObserverDeliverAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	const msgs = 512
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g)
	if nw.obs != nil {
		t.Fatal("network has an observer by default")
	}
	kind := Kind("alloc.obsnil")
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
	allocBudget(t, "nil-observer deliver wave (512 messages)", avg, 32)
}

// TestObserverRoundEndExact checks that RoundEnd reports the engine's exact
// cumulative counters — equal to the network totals after the run — and
// that session open/done events pair up.
func TestObserverRoundEndExact(t *testing.T) {
	rec := &recObserver{}
	g := graph.Path(4, 1, graph.UnitWeights())
	nw := NewNetwork(g, WithObserver(rec))
	kind := Kind("obs.fwd")
	nw.RegisterHandler(kind, func(nw *Network, node *NodeState, m *Message) {
		if node.ID < 4 {
			nw.Send(node.ID, node.ID+1, kind, m.Session, 16, nil)
			return
		}
		nw.CompleteSession(m.Session, nil, nil)
	})
	sid := nw.NewSession(nil)
	nw.Send(1, 2, kind, sid, 16, nil)
	if err := nw.Run(); err != nil {
		t.Fatal(err)
	}
	if err := nw.Take(sid).Err(); err != nil {
		t.Fatal(err)
	}
	if rec.rounds == 0 {
		t.Fatal("RoundEnd never fired")
	}
	if rec.messages != nw.counters.messages || rec.bits != nw.counters.bits {
		t.Errorf("last RoundEnd saw (%d msgs, %d bits), network totals (%d, %d)",
			rec.messages, rec.bits, nw.counters.messages, nw.counters.bits)
	}
	if rec.opened == 0 || rec.opened != rec.done {
		t.Errorf("sessions opened=%d done=%d — want equal and nonzero", rec.opened, rec.done)
	}
	if rec.failed != 0 {
		t.Errorf("%d sessions reported failed", rec.failed)
	}
}

// TestPhaseMeterDeltas checks PhaseMeter's ledger-delta arithmetic: two
// consecutive phases of known traffic produce exact per-phase costs with
// class breakdowns sorted by class name.
func TestPhaseMeterDeltas(t *testing.T) {
	g := graph.Path(2, 1, graph.UnitWeights())
	nw := NewNetwork(g)
	ka := Kind("pma.x")
	kb := Kind("pmb.y")
	noop := func(*Network, *NodeState, *Message) {}
	nw.RegisterHandler(ka, noop)
	nw.RegisterHandler(kb, noop)
	send := func(kind KindID, n int, bits int) {
		for i := 0; i < n; i++ {
			nw.Send(1, 2, kind, 0, bits, nil)
		}
		if err := nw.Run(); err != nil {
			t.Fatal(err)
		}
	}
	var meter PhaseMeter
	meter.Begin(nw)
	send(ka, 3, 8)
	costA := meter.End()
	meter.Begin(nw)
	send(ka, 1, 8)
	send(kb, 2, 32)
	costB := meter.End()

	wantA := uint64(3 * (8 + FramingBits))
	if costA.Messages != 3 || costA.Bits != wantA {
		t.Errorf("phase A cost = (%d msgs, %d bits), want (3, %d)", costA.Messages, costA.Bits, wantA)
	}
	if len(costA.Classes) != 1 || costA.Classes[0].Class != "pma" || costA.Classes[0].Messages != 3 {
		t.Errorf("phase A classes = %+v, want one pma class with 3 messages", costA.Classes)
	}
	wantB := uint64(1*(8+FramingBits) + 2*(32+FramingBits))
	if costB.Messages != 3 || costB.Bits != wantB {
		t.Errorf("phase B cost = (%d msgs, %d bits), want (3, %d)", costB.Messages, costB.Bits, wantB)
	}
	if len(costB.Classes) != 2 || costB.Classes[0].Class != "pma" || costB.Classes[1].Class != "pmb" {
		t.Errorf("phase B classes = %+v, want pma then pmb (sorted by name)", costB.Classes)
	}
	if costB.Classes[0].Messages != 1 || costB.Classes[1].Messages != 2 {
		t.Errorf("phase B class counts = %+v, want pma=1 pmb=2", costB.Classes)
	}
}
