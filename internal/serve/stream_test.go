package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"kkt/internal/faultplan"
	"kkt/internal/obsv"
	"kkt/internal/race"
)

// TestHubStream subscribes a real client to a hub and checks the
// full-then-delta protocol: first message carries a full snapshot, later
// ones deltas, and applying the deltas tracks the publisher's recorder.
func TestHubStream(t *testing.T) {
	hub := NewHub()
	rec := obsv.NewRecorder("ws-test")
	pub := NewPublisher(hub, rec)
	srv := httptest.NewServer(hub)
	defer srv.Close()

	c, err := Subscribe(srv.URL+"/stream", 5*time.Second)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer c.Close()
	if hub.Subscribers() != 1 {
		t.Fatal("subscriber not registered when Subscribe returned")
	}

	kinds := makeKindScratch()
	for i := 0; i < 30; i++ {
		driveStepServe(rec, i, kinds)
		pub.Publish(ServeStats{Epoch: i / 10, EventsDone: i, EventsTotal: 30, QueueDepth: 30 - i})
	}

	var state obsv.Snapshot
	var got int
	var sawDelta bool
	for got < 5 {
		raw, err := c.Next(5 * time.Second)
		if err != nil {
			t.Fatalf("read message %d: %v", got, err)
		}
		var msg PushMsg
		if err := json.Unmarshal(raw, &msg); err != nil {
			t.Fatalf("bad push message: %v", err)
		}
		switch {
		case msg.Full != nil:
			state = *msg.Full
		case msg.Delta != nil:
			if got == 0 {
				t.Fatal("first message was a delta, want full snapshot")
			}
			sawDelta = true
			state = obsv.Apply(state, *msg.Delta)
		default:
			t.Fatal("push message with neither full nor delta")
		}
		if msg.Serve.EventsTotal != 30 {
			t.Errorf("serve stats missing: %+v", msg.Serve)
		}
		got++
	}
	if !sawDelta {
		t.Error("stream never switched to deltas")
	}
	if state.Repairs.Finished == 0 && state.Messages == 0 {
		t.Error("reconstructed snapshot is empty")
	}
}

// TestHubSlowClientResync overflows a subscriber's bounded buffer (a
// registered client whose channel nobody drains — the slow-reader case),
// then drains it and checks the next delivery is a full-snapshot resync
// carrying the drop count. Uses the hub's internals directly so the
// overflow is deterministic rather than at the mercy of socket buffers.
func TestHubSlowClientResync(t *testing.T) {
	hub := NewHub()
	rec := obsv.NewRecorder("slow-test")
	pub := NewPublisher(hub, rec)

	c := &hubClient{ch: make(chan []byte, hubClientBuffer)}
	c.needFull.Store(true)
	hub.mu.Lock()
	hub.clients[c] = struct{}{}
	hub.mu.Unlock()
	hub.subs.Add(1)

	// Publish past the buffer capacity without draining: the overflow
	// must be counted and flagged, never block the publisher.
	kinds := makeKindScratch()
	for i := 0; i < hubClientBuffer*2; i++ {
		driveStepServe(rec, i, kinds)
		pub.Publish(ServeStats{EventsDone: i})
	}
	if c.drops.Load() == 0 {
		t.Fatal("overflowed client counted no drops")
	}
	if !c.needFull.Load() {
		t.Fatal("overflowed client not flagged for resync")
	}

	// Drain, then publish once more: the delivery after a gap must be a
	// full snapshot reporting the gap size.
	for len(c.ch) > 0 {
		<-c.ch
	}
	wantDrops := c.drops.Load()
	driveStepServe(rec, 999, kinds)
	pub.Publish(ServeStats{EventsDone: 999})
	var msg PushMsg
	if err := json.Unmarshal(<-c.ch, &msg); err != nil {
		t.Fatal(err)
	}
	if msg.Full == nil {
		t.Error("resync after drops did not carry a full snapshot")
	}
	if msg.Drops != wantDrops {
		t.Errorf("resync reports %d drops, want %d", msg.Drops, wantDrops)
	}
}

// TestPublishDisabledAllocs is the acceptance gate on the disabled path:
// with zero subscribers, Publish must not allocate (or snapshot, or
// diff) at all.
func TestPublishDisabledAllocs(t *testing.T) {
	race.SkipAllocTest(t)
	hub := NewHub()
	rec := obsv.NewRecorder("idle")
	kinds := makeKindScratch()
	for i := 0; i < 100; i++ {
		driveStepServe(rec, i, kinds)
	}
	pub := NewPublisher(hub, rec)
	ss := ServeStats{Epoch: 1, EventsDone: 50, EventsTotal: 100}
	if allocs := testing.AllocsPerRun(1000, func() { pub.Publish(ss) }); allocs != 0 {
		t.Errorf("Publish with no subscribers allocates %.1f per call, want 0", allocs)
	}
}

// TestServeWSEndToEnd runs a real (small) daemon with a hub wired into
// its wave callbacks and asserts a subscriber sees live repair deltas —
// the in-process version of the CI smoke gate.
func TestServeWSEndToEnd(t *testing.T) {
	hub := NewHub()
	rec := obsv.NewRecorder("e2e")
	pub := NewPublisher(hub, rec)
	srv := httptest.NewServer(hub)
	defer srv.Close()

	c, err := Subscribe(srv.URL, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfg := Config{
		Spec:        GraphSpec{Family: "gnm", N: 40, M: 120, Seed: 3},
		Algo:        "mst",
		Seed:        21,
		Wave:        4,
		EpochEvents: 8,
		Events:      32,
		Churn:       faultplan.Plan{TreeEdgeDeletes: 3, Deletes: 2, Inserts: 2, WeightChanges: 1},
		Observer:    rec,
	}
	cfg.OnWave = func(wi WaveInfo) {
		pub.Publish(ServeStats{
			Epoch: wi.Epoch, EventsDone: wi.Stats.Repairs + wi.Stats.Inline, EventsTotal: cfg.Events,
			QueueDepth: wi.Pending, Repairs: wi.Stats.Repairs, Waves: wi.Stats.Waves, Retries: wi.Stats.Retries,
		})
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	var state obsv.Snapshot
	sawRepair := false
	for i := 0; i < 200 && !sawRepair; i++ {
		raw, err := c.Next(5 * time.Second)
		if err != nil {
			break // stream drained
		}
		var msg PushMsg
		if err := json.Unmarshal(raw, &msg); err != nil {
			t.Fatal(err)
		}
		if msg.Full != nil {
			state = *msg.Full
		} else if msg.Delta != nil {
			state = obsv.Apply(state, *msg.Delta)
		}
		if state.Repairs.Finished > 0 {
			sawRepair = true
		}
	}
	if !sawRepair {
		t.Error("subscriber never saw a finished repair in the live stream")
	}
}

// TestStreamCloseUnsubscribes: a client that hangs up is dropped from the
// hub, so the publisher goes back to its zero-cost idle path.
func TestStreamCloseUnsubscribes(t *testing.T) {
	hub := NewHub()
	srv := httptest.NewServer(hub)
	defer srv.Close()

	c, err := Subscribe(srv.URL, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if n := hub.Subscribers(); n != 1 {
		t.Fatalf("%d subscribers after Subscribe, want 1", n)
	}
	c.Close()
	// The handler sees the hang-up asynchronously, through its request
	// context.
	deadline := time.Now().Add(5 * time.Second)
	for hub.Subscribers() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := hub.Subscribers(); n != 0 {
		t.Fatalf("%d subscribers after Close, want 0", n)
	}
}

// TestStreamEndsOnServerClose: when the server shuts down (the daemon's
// exit path), a subscriber's Next reports ErrClosed, not a read error.
func TestStreamEndsOnServerClose(t *testing.T) {
	hub := NewHub()
	pub := NewPublisher(hub, obsv.NewRecorder("close-test"))
	srv := httptest.NewServer(hub)
	defer srv.Close()

	c, err := Subscribe(srv.URL, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pub.Publish(ServeStats{Epoch: 1})
	if _, err := c.Next(5 * time.Second); err != nil {
		t.Fatalf("first message: %v", err)
	}
	srv.Config.Close()
	if _, err := c.Next(5 * time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("Next after server close = %v, want ErrClosed", err)
	}
}

// TestHubRejectsNonGET: the stream is read-only; any other method gets 405
// and registers nothing.
func TestHubRejectsNonGET(t *testing.T) {
	hub := NewHub()
	w := httptest.NewRecorder()
	hub.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/ws", strings.NewReader("x")))
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST got %d, want 405", w.Code)
	}
	if got := w.Header().Get("Allow"); got != http.MethodGet {
		t.Errorf("Allow = %q, want GET", got)
	}
	if n := hub.Subscribers(); n != 0 {
		t.Errorf("rejected request left %d subscribers", n)
	}
}

// FuzzReadEvent runs the SSE reader over arbitrary bytes with a 32-byte
// message bound and checks it against refEvents, a line-split reading of
// the same rules. Nothing may panic, no message may exceed the bound, and
// an over-long line must be an error, never a bigger buffer. The seed
// corpus in testdata/fuzz/FuzzReadEvent covers CRLF, comments, an empty
// data line, two data lines, no trailing blank line and an over-long line.
func FuzzReadEvent(f *testing.F) {
	const max = 32
	f.Fuzz(func(t *testing.T, in string) {
		// The smallest bufio buffer, so long lines take the fragment path.
		br := bufio.NewReaderSize(strings.NewReader(in), 16)
		var got []string
		var err error
		for {
			var ev []byte
			if ev, err = readEvent(br, max); err != nil {
				break
			}
			if len(ev) > max {
				t.Fatalf("event of %d bytes passed the %d-byte bound", len(ev), max)
			}
			got = append(got, string(ev))
		}
		want, wantClosed := refEvents(in, max)
		if !slices.Equal(got, want) {
			t.Fatalf("events %q, want %q", got, want)
		}
		if closed := errors.Is(err, ErrClosed); closed != wantClosed {
			t.Fatalf("stream ended with %v, want closed=%v", err, wantClosed)
		}
	})
}

// refEvents reads in by the SSE rules readEvent implements: the data of
// each complete event, and whether the stream ends cleanly (false: a line
// or a message over the bound).
func refEvents(in string, max int) (events []string, closed bool) {
	var data []string
	for _, raw := range strings.SplitAfter(in, "\n") {
		if len(raw) > max+len("data: \r\n") {
			return events, false
		}
		if !strings.HasSuffix(raw, "\n") {
			return events, true // unterminated: discarded at end of stream
		}
		line := strings.TrimSuffix(strings.TrimSuffix(raw, "\n"), "\r")
		if line == "" {
			if data != nil {
				events = append(events, strings.Join(data, "\n"))
			}
			data = nil
			continue
		}
		if field, value, _ := strings.Cut(line, ":"); field == "data" {
			data = append(data, strings.TrimPrefix(value, " "))
			if len(strings.Join(data, "\n")) > max {
				return events, false
			}
		}
	}
	return events, true
}

// --- test helpers -----------------------------------------------------

type congestKindCounts = struct{ Messages, Bits uint64 }

func makeKindScratch() []congestKindCounts {
	return make([]congestKindCounts, 8)
}

// driveStepServe mirrors the obsv package's test driver: one scripted
// engine step of observer traffic.
func driveStepServe(r *obsv.Recorder, i int, kinds []congestKindCounts) {
	kinds[0].Messages += uint64(i%5 + 1)
	kinds[0].Bits += uint64(i % 31)
	r.RoundEnd(int64(i+1), uint64(7*i), uint64(120*i), nil, nil)
	switch i % 3 {
	case 0:
		r.RepairStart("mst.delete", int64(i+1))
		r.RepairDone("mst.delete", "replace", int64(i+1), int64(i%9+1), uint64(i), uint64(2*i))
	case 1:
		r.Count("wave.launched", 1)
	}
}
