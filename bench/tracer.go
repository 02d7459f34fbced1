package main

import (
	"fmt"
	"time"

	"kkt/internal/congest"
)

// phaseSlots is how many Borůvka phases get their own mst.phase_s.<k>
// metric; later phases fold into mst.phase_s.rest.
const phaseSlots = 10

// ledger is the minimal congest.Observer: RoundEnd keeps the engine's
// cumulative totals and every other hook is a no-op.
type ledger struct {
	now            int64
	messages, bits uint64
}

func (l *ledger) RoundEnd(now int64, messages, bits uint64, _ []congest.KindCount, _ []uint64) {
	l.now, l.messages, l.bits = now, messages, bits
}
func (*ledger) SessionOpen(uint64, int64)                               {}
func (*ledger) SessionDone(uint64, int64, bool)                         {}
func (*ledger) PhaseStart(string, int, int, int64)                      {}
func (*ledger) PhaseEnd(string, int, int64, congest.PhaseCosts)         {}
func (*ledger) RepairStart(string, int64)                               {}
func (*ledger) RepairDone(string, string, int64, int64, uint64, uint64) {}
func (*ledger) Count(string, uint64)                                    {}

// tracer is the bench's congest.Observer for the traced run. It keeps
// everything in memory until the pass ends: wall-clock gaps between
// delivery batches, session and lifecycle counts, phase spans, repair
// costs, and the engine's cumulative ledger folded across the networks of
// a pass.
type tracer struct {
	// ledger is the current network's cumulative ledger as RoundEnd last
	// reported it, byKind its per-kind part; closeNetwork folds both into
	// the totals below.
	ledger
	byKind []congest.KindCount

	total    ledger
	kindMsgs map[string]float64

	last     time.Time // previous RoundEnd; zero after a gap
	roundUS  []float64
	rounds   int
	sessions int
	counts   map[string]float64

	phaseAt time.Time
	phaseS  map[string][]float64 // seconds per phase index, by protocol

	repairRounds []float64
	repairMsgs   float64
}

func newTracer() *tracer {
	return &tracer{
		counts:   map[string]float64{},
		phaseS:   map[string][]float64{},
		kindMsgs: map[string]float64{},
	}
}

func (t *tracer) RoundEnd(now int64, messages, bits uint64, byKind []congest.KindCount, _ []uint64) {
	at := time.Now()
	if !t.last.IsZero() {
		t.roundUS = append(t.roundUS, float64(at.Sub(t.last).Nanoseconds())/1e3)
	}
	t.last = at
	t.rounds++
	t.ledger.RoundEnd(now, messages, bits, byKind, nil)
	t.byKind = append(t.byKind[:0], byKind...)
}

func (t *tracer) SessionOpen(uint64, int64)          { t.sessions++ }
func (t *tracer) PhaseStart(string, int, int, int64) { t.phaseAt = time.Now() }

func (t *tracer) PhaseEnd(proto string, phase int, _ int64, _ congest.PhaseCosts) {
	s := t.phaseS[proto]
	for len(s) < phase {
		s = append(s, 0)
	}
	s[phase-1] += time.Since(t.phaseAt).Seconds()
	t.phaseS[proto] = s
}

func (t *tracer) RepairDone(_, _ string, _ int64, rounds int64, messages, _ uint64) {
	if rounds == 0 && messages == 0 {
		return // resolved inline at admission: no repair ran
	}
	t.repairRounds = append(t.repairRounds, float64(rounds))
	t.repairMsgs += float64(messages)
}

func (t *tracer) Count(name string, delta uint64) { t.counts[name] += float64(delta) }

// gap marks a pause between engine runs, such as a serve wave boundary:
// the next batch's wall time is not a gap between rounds.
func (t *tracer) gap() { t.last = time.Time{} }

// closeNetwork folds the finished network's ledger into the totals.
func (t *tracer) closeNetwork() {
	t.total.now += t.now
	t.total.messages += t.messages
	t.total.bits += t.bits
	for id, kc := range t.byKind {
		if kc.Messages != 0 {
			t.kindMsgs[congest.KindID(id).String()] += float64(kc.Messages)
		}
	}
	t.ledger = ledger{}
	t.byKind = t.byKind[:0]
	t.gap()
}

// report writes the traced per-layer metrics into l.
func (t *tracer) report(l map[string]float64) {
	l["congest.messages"] = float64(t.total.messages)
	l["congest.bits"] = float64(t.total.bits)
	l["congest.sim_time"] = float64(t.total.now)
	l["congest.rounds"] = float64(t.rounds)
	l["congest.round_p50_us"] = quantile(t.roundUS, 0.5)
	l["congest.round_p99_us"] = quantile(t.roundUS, 0.99)
	if t.rounds > 0 {
		l["congest.msgs_per_round"] = float64(t.total.messages) / float64(t.rounds)
	}
	l["congest.sessions"] = float64(t.sessions)
	for _, k := range []string{"down", "up", "token", "markx"} {
		l["tree.msgs."+k] = t.kindMsgs["tree."+k]
	}
	l["ghs.msgs.test"] = t.kindMsgs["ghs.test"]
	for _, name := range []string{"tree.bcast_echo", "tree.elect"} {
		l[name] = t.counts[name]
	}
	for _, reason := range []string{"found", "empty-cut", "gave-up"} {
		l["findmin."+reason] = t.counts["findmin."+reason]
	}
	phases := t.phaseS["mst"]
	for k := 1; k <= phaseSlots; k++ {
		l[fmt.Sprintf("mst.phase_s.%d", k)] = 0
	}
	l["mst.phase_s.rest"] = 0
	for i, s := range phases {
		if i < phaseSlots {
			l[fmt.Sprintf("mst.phase_s.%d", i+1)] = s
		} else {
			l["mst.phase_s.rest"] += s
		}
	}
	l["serve.repair_rounds_p50"] = quantile(t.repairRounds, 0.5)
	l["serve.repair_rounds_p99"] = quantile(t.repairRounds, 0.99)
	if n := len(t.repairRounds); n > 0 {
		l["serve.msgs_per_repair"] = t.repairMsgs / float64(n)
	}
}
