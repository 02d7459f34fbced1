package tree

import (
	"fmt"
	"reflect"
	"testing"

	"kkt/internal/congest"
	"kkt/internal/graph"
)

// pickSearch selects a fixed edge per leader (0 = none) after awaiting
// one already-completed session, so the fan-out sees a search that parks
// and resumes like a real one without sending messages.
type pickSearch struct {
	nw      *congest.Network
	pick    map[congest.NodeID]uint64
	leader  congest.NodeID
	started bool
}

func (s *pickSearch) Arm(phase int, leader congest.NodeID) {
	s.leader, s.started = leader, false
}

func (s *pickSearch) Found() (uint64, Outcome) {
	if e := s.pick[s.leader]; e != 0 {
		return e, FoundEdge
	}
	return 0, EmptyCut
}

func (s *pickSearch) Step(_ *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	if !s.started {
		s.started = true
		sid := s.nw.NewSession(nil)
		s.nw.CompleteSessionU(sid, 0, nil)
		return sid, false, nil
	}
	_, err := w.U()
	return 0, true, err
}

// phaseRec records the observer's phase annotations.
type phaseRec struct{ events []string }

func (*phaseRec) RoundEnd(int64, uint64, uint64, []congest.KindCount, []uint64) {}
func (*phaseRec) SessionOpen(uint64, int64)                                     {}
func (*phaseRec) SessionDone(uint64, int64, bool)                               {}
func (*phaseRec) RepairStart(string, int64)                                     {}
func (*phaseRec) RepairDone(string, string, int64, int64, uint64, uint64)       {}
func (*phaseRec) Count(string, uint64)                                          {}
func (r *phaseRec) PhaseStart(proto string, phase, fragments int, _ int64) {
	r.events = append(r.events, fmt.Sprintf("start %s %d %d", proto, phase, fragments))
}
func (r *phaseRec) PhaseEnd(proto string, phase int, _ int64, cost congest.PhaseCosts) {
	r.events = append(r.events, fmt.Sprintf("end %s %d %d", proto, phase, cost.Messages))
}

// TestFanoutAddsFoundEdges runs one fan-out phase over the four singleton
// fragments of an unmarked path: the edges two searches report must be
// marked at both endpoints by the phase's end, the searches come back in
// leader order, and the observer sees one bracketed phase carrying the
// two cross-edge mark messages.
func TestFanoutAddsFoundEdges(t *testing.T) {
	g := graph.Path(4, 1000, func(k int) uint64 { return uint64(k + 1) })
	rec := &phaseRec{}
	nw := congest.NewNetwork(g, congest.WithObserver(rec))
	pr := Attach(nw)
	pick := map[congest.NodeID]uint64{
		1: nw.Node(1).EdgeTo(2).EdgeNum,
		4: nw.Node(4).EdgeTo(3).EdgeNum,
	}
	leaders := []congest.NodeID{1, 2, 3, 4}
	fan := NewFanout(pr, "test", "pick", func() *pickSearch {
		return &pickSearch{nw: nw, pick: pick}
	}, (*pickSearch).Arm)
	fan.Begin()
	searches, _, err := fan.Run(1, leaders)
	if err != nil {
		t.Fatal(err)
	}
	var got []congest.NodeID
	for _, s := range searches {
		got = append(got, s.leader)
	}
	if !reflect.DeepEqual(got, leaders) {
		t.Errorf("searches in order %v, want %v", got, leaders)
	}
	want := [][2]congest.NodeID{{1, 2}, {3, 4}}
	if marked := nw.MarkedEdges(); !reflect.DeepEqual(marked, want) {
		t.Errorf("marked edges %v, want %v", marked, want)
	}
	if wantEv := []string{"start test 1 4", "end test 1 2"}; !reflect.DeepEqual(rec.events, wantEv) {
		t.Errorf("observer saw %q, want %q", rec.events, wantEv)
	}
}
