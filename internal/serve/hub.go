package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kkt/internal/obsv"
)

// Hub is the push-stream fan-out (Server-Sent Events at /ws): any number
// of subscribers, each with a bounded buffer a slow reader can only
// overflow for itself. The publish path never blocks on a client — an
// overflowing client's messages are counted dropped and its next delivered
// message is a full snapshot resync (a delta stream with a gap is
// unrecoverable; see the obsv delta contract).
//
// The engine-side cost contract: with zero subscribers the per-wave
// publish path is a single atomic load and a branch — no snapshot, no
// diff, no marshal, no allocation (gated by TestPublishDisabledAllocs).
type Hub struct {
	subs atomic.Int64

	mu      sync.Mutex
	clients map[*hubClient]struct{}
}

type hubClient struct {
	ch       chan []byte
	needFull atomic.Bool
	drops    atomic.Uint64
}

// hubClientBuffer bounds each subscriber's in-flight messages.
const hubClientBuffer = 64

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{clients: make(map[*hubClient]struct{})}
}

// Subscribers returns the live subscriber count (the publish fast path).
func (h *Hub) Subscribers() int { return int(h.subs.Load()) }

// ServeHTTP registers a subscriber, then streams push messages to it as
// Server-Sent Events until the client disconnects or the server closes.
// Registration comes before the response headers, so a client that has
// seen them is already subscribed.
func (h *Hub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "push stream: GET required", http.StatusMethodNotAllowed)
		return
	}
	c := &hubClient{ch: make(chan []byte, hubClientBuffer)}
	c.needFull.Store(true) // first delivery is always a full snapshot
	h.mu.Lock()
	h.clients[c] = struct{}{}
	h.mu.Unlock()
	h.subs.Add(1)
	defer func() {
		h.mu.Lock()
		delete(h.clients, c)
		h.mu.Unlock()
		h.subs.Add(-1)
	}()

	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	if rc.Flush() != nil {
		return
	}
	for {
		select {
		case msg := <-c.ch:
			_ = rc.SetWriteDeadline(time.Now().Add(30 * time.Second)) // ErrNotSupported: the write is unbounded
			// json.Marshal escapes every newline: one message, one data line.
			if _, err := fmt.Fprintf(w, "data: %s\n\n", msg); err != nil || rc.Flush() != nil {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// Broadcast fans one marshaled delta message out to every subscriber.
// full is called lazily (at most once) to build the resync message for
// clients that dropped or just connected. A client whose buffer is full
// drops the message, counts it, and is flagged for resync.
func (h *Hub) Broadcast(delta []byte, full func(drops uint64) []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for c := range h.clients {
		msg := delta
		if c.needFull.Load() {
			msg = full(c.drops.Load())
		}
		if msg == nil {
			continue
		}
		select {
		case c.ch <- msg:
			c.needFull.Store(false)
		default:
			c.drops.Add(1)
			c.needFull.Store(true)
		}
	}
}

// PushMsg is one push-stream message. Exactly one of Full or Delta
// is set: Full on first contact and after a drop gap (Drops then reports
// how many messages that client missed in total), Delta otherwise.
type PushMsg struct {
	Seq   uint64         `json:"seq"`
	Full  *obsv.Snapshot `json:"full,omitempty"`
	Delta *obsv.Delta    `json:"delta,omitempty"`
	Serve ServeStats     `json:"serve"`
	Drops uint64         `json:"drops,omitempty"`
}

// ServeStats is the daemon-level progress block attached to every push
// message: stream position, queue depth, and cumulative repair counters.
type ServeStats struct {
	Epoch       int    `json:"epoch"`
	EventsDone  int    `json:"events_done"`
	EventsTotal int    `json:"events_total"`
	QueueDepth  int    `json:"queue_depth"`
	IngestLag   int    `json:"ingest_lag"` // events ingested but not yet resolved + not yet ingested
	Repairs     int    `json:"repairs"`
	Waves       int    `json:"waves"`
	Retries     int    `json:"retries"`
	Digest      string `json:"digest,omitempty"` // epoch boundaries only
}

// Publisher drives the hub from the daemon's wave/epoch callbacks: it
// owns the previous-snapshot state for delta computation and skips all of
// it — snapshot, diff, marshal — when nobody is subscribed.
type Publisher struct {
	hub  *Hub
	rec  *obsv.Recorder
	prev obsv.Snapshot
	seq  uint64
	sent bool // prev is valid (at least one publish since last idle reset)
}

// NewPublisher couples a hub to the daemon's recorder.
func NewPublisher(hub *Hub, rec *obsv.Recorder) *Publisher {
	return &Publisher{hub: hub, rec: rec}
}

// Publish pushes the current observability state to all subscribers.
// With zero subscribers this is one atomic load — the disabled path the
// allocation gate pins at zero allocs.
func (p *Publisher) Publish(ss ServeStats) {
	if p.hub.Subscribers() == 0 {
		// Invalidate prev: a client connecting later starts from a full
		// snapshot anyway, so skipping diffs entirely while idle is safe.
		p.sent = false
		return
	}
	cur := p.rec.Snapshot()
	p.seq++
	var deltaMsg []byte
	if p.sent {
		d := obsv.Diff(p.prev, cur)
		deltaMsg, _ = json.Marshal(PushMsg{Seq: p.seq, Delta: &d, Serve: ss})
	}
	// The zero-drops resync (a fresh subscriber) is cached and shared;
	// resyncs after drops carry that client's own gap count, so they are
	// marshaled per client.
	var fullMsg []byte
	full := func(drops uint64) []byte {
		if drops != 0 {
			b, _ := json.Marshal(PushMsg{Seq: p.seq, Full: &cur, Serve: ss, Drops: drops})
			return b
		}
		if fullMsg == nil {
			fullMsg, _ = json.Marshal(PushMsg{Seq: p.seq, Full: &cur, Serve: ss})
		}
		return fullMsg
	}
	if deltaMsg == nil {
		// No valid prev: everyone gets the full snapshot.
		p.hub.Broadcast(nil, full)
	} else {
		p.hub.Broadcast(deltaMsg, full)
	}
	p.prev = cur
	p.sent = true
}
