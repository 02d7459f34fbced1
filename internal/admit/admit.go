// Package admit is the concurrent-repair admission queue: it turns a
// compiled fault-plan event list into waves of overlapping repair drivers,
// with deterministic conflict detection on fragment overlap and bounded,
// seeded retry backoff. See doc.go for the safety argument. Repairer
// (repair.go) is the launcher and the one repair machine of both
// maintained forests; Apply runs the same machine on its own for an
// update applied alone.
package admit

import (
	"kkt/internal/congest"
	"kkt/internal/faultplan"
)

// Claim is what an admission scan hands a Launcher for one event: it
// acquires wave-start components (Acquire) and roots the repair it then
// launches (Root). The zero Claim, which Apply uses for an update applied
// alone, acquires everything and roots at the smaller ID.
type Claim struct {
	q *Queue // the scanning queue; nil outside a scan
}

// Acquire acquires the wave-start components of nodes a and b, or of a
// alone when b is 0. It is a single-pass check-and-acquire: either every
// component is free (all are acquired, returns true) or none is taken
// (returns false). A Launcher must call it at most once per Admit and must
// not mutate topology before a successful claim.
func (c Claim) Acquire(a, b congest.NodeID) bool {
	if c.q == nil {
		return true
	}
	l := &c.q.labels
	la, lb := l.of[a], l.of[b]
	if c.q.claimed[la] || (b != 0 && c.q.claimed[lb]) {
		return false
	}
	c.q.claimed[la] = true
	if b != 0 {
		c.q.claimed[lb] = true
	}
	return true
}

// Root orders the endpoints of a repair launched under a successful
// Acquire so the first one, the repair's root, is on the smaller side of
// the live marked forest: the repair's broadcasts and searches cover the
// root's tree, so a deletion that severs a few nodes from a 100k-node tree
// costs the few nodes. It returns (b, a) iff |comp b| < |comp a|, and
// keeps the order on a tie or when a and b share a component. It must run
// after the event's mutation: the cut or unmarked edge is gone from the
// forest and a just-inserted edge is not yet marked.
//
// A delete-style repair (deleteStyle) has just cut its component, so the
// labels' alternating walk compares the two halves across the cut in
// O(smaller half). An insert-style one changed no mark, and its claimed
// components still have their wave-start marks (see the package's safety
// argument), so the labels answer without a walk. Either way this is
// centralized controller work: it sends no messages and costs no rounds.
func (c Claim) Root(deleteStyle bool, a, b congest.NodeID) (root, peer congest.NodeID) {
	if c.q == nil {
		return min(a, b), max(a, b)
	}
	l := &c.q.labels
	if deleteStyle {
		if bSmaller, _ := l.d.run(l.nw, a, b, nil); bSmaller {
			return b, a
		}
		return a, b
	}
	if l.size[l.of[b]] < l.size[l.of[a]] {
		return b, a
	}
	return a, b
}

// Repair is one wave-mode repair in flight: a continuation-task driver
// plus the outcome label, valid once the task finished.
type Repair interface {
	congest.StepDriver
	Action() Action
}

// Decision is a Launcher's verdict on one event.
type Decision struct {
	// Deferred: the claim failed; the event stays pending and retries in a
	// later wave. No topology was mutated.
	Deferred bool
	// Inline: the event was fully resolved at admission (no-op or skipped)
	// with no driver to run. Action carries the outcome label.
	Inline bool
	// Action is the outcome of inline decisions (NoOp or Skipped).
	Action Action
	// Op is the observer operation label ("mst.delete", "st.insert", ...);
	// set for every non-deferred decision.
	Op string
	// Driver is the repair to launch in the current wave (nil for
	// inline/deferred decisions). The launcher has already applied the
	// event's topology mutation under the granted claim.
	Driver Repair
	// Err says why a Skipped event could not apply; an update applied on
	// its own (Apply) reports it.
	Err error
}

// Launcher adapts one maintained structure to the queue; Repairer is the
// implementation for both the weighted MSF and the spanning forest. Admit
// inspects an event against live topology and either resolves it inline,
// defers it (claim conflict), or — after acquiring the needed components
// via claim.Acquire and applying the topology mutation — returns a driver
// for the wave. Release returns a finished driver to the launcher's pool.
type Launcher interface {
	Admit(ev faultplan.Event, claim Claim) Decision
	Release(r Repair)
}

// Config tunes the queue.
type Config struct {
	// Wave caps how many repair drivers run concurrently in one wave
	// (default 64).
	Wave int
	// Seed feeds the backoff hash.
	Seed uint64
}

const (
	// maxRetries bounds backoff growth: after this many conflicts an event
	// retries every wave (delay 0) until admitted.
	maxRetries = 8
	// maxBackoff bounds the seeded backoff delay, in waves.
	maxBackoff = 4
)

func (c Config) withDefaults() Config {
	if c.Wave <= 0 {
		c.Wave = 64
	}
	return c
}

// Stats is the queue's cost accounting.
type Stats struct {
	// Repairs counts launched repair drivers; the amortization denominator.
	Repairs int
	// Inline counts events resolved at admission with no driver (includes
	// Skipped).
	Inline int
	// Skipped counts inline events that could not apply (see Skipped).
	Skipped int
	// Waves counts executed (non-empty) waves.
	Waves int
	// Retries counts admission conflicts (claim failures and same-edge
	// ordering blocks).
	Retries int
	// Actions tallies outcome labels across inline and driver repairs.
	Actions map[string]int
}

// item is one pending event.
type item struct {
	idx     int // index in the original event list (backoff hash, task name)
	ev      faultplan.Event
	delay   int // waves to sit out before the next admission attempt
	retries int
}

// launchItem is one admitted driver awaiting its wave.
type launchItem struct {
	idx    int
	op     string
	driver Repair
}

// backoffDelay is the seeded, deterministic retry delay in waves: a pure
// hash of (seed, event index, retry count), so reports stay byte-identical
// at any shard count.
func backoffDelay(seed uint64, idx, retries, maxBackoff int) int {
	h := seed ^ uint64(idx+1)*0x9e3779b97f4a7c15 ^ uint64(retries)*0xbf58476d1ce4e5b9
	h ^= h >> 29
	h *= 0x94d049bb133111eb
	h ^= h >> 32
	return 1 + int(h%uint64(maxBackoff))
}

// edgeOf is the order key: events on the same unordered pair must admit in
// list order (a heal insert must not overtake the partition delete that
// freed its slot).
func edgeOf(ev faultplan.Event) uint64 {
	a, b := uint64(ev.A), uint64(ev.B)
	if a > b {
		a, b = b, a
	}
	return a<<32 | b
}

// Queue is the drainable, suspendable form of the admission loop: events
// are Pushed in batches (a serving daemon feeds it one ingest epoch at a
// time), waves run one at a time via RunWave or to exhaustion via Drain,
// and Suspend captures the pending backlog so a checkpointed daemon can
// resume the exact admission schedule. Event indices are assigned at Push
// and grow monotonically across batches: an event's backoff delays and
// task names are pure functions of (Config.Seed, index), so a resumed
// queue schedules exactly as an uninterrupted one.
type Queue struct {
	cfg   Config
	stats Stats

	pending []*item
	nextIdx int

	// labels are the wave-start components, kept across waves; the rest
	// is per-wave scratch.
	labels  labels
	claimed map[int32]bool
	blocked map[uint64]bool
	wave    []launchItem
}

// NewQueue returns an empty queue with the given (defaulted) config.
func NewQueue(cfg Config) *Queue {
	cfg = cfg.withDefaults()
	return &Queue{
		cfg:     cfg,
		stats:   Stats{Actions: make(map[string]int)},
		claimed: make(map[int32]bool),
		blocked: make(map[uint64]bool),
		wave:    make([]launchItem, 0, cfg.Wave),
	}
}

// Push appends events to the pending backlog, assigning each the next
// monotone index.
func (q *Queue) Push(events ...faultplan.Event) {
	for _, ev := range events {
		q.pending = append(q.pending, &item{idx: q.nextIdx, ev: ev})
		q.nextIdx++
	}
}

// Pending returns the number of events not yet resolved (admitted inline,
// or launched and finished).
func (q *Queue) Pending() int { return len(q.pending) }

// Stats returns the queue's cumulative accounting. The Actions map is
// shared with the queue; callers must not mutate it while draining.
func (q *Queue) Stats() Stats { return q.stats }

// RunWave executes one admission scan and, if any drivers were admitted,
// one engine wave: bring the wave-start component labels up to date with
// the marked forest, admit pending events in order under the claims
// discipline, run all admitted drivers concurrently as continuation tasks
// on one engine Run, then apply staged marks. An all-backoff scan launches nothing but
// still makes progress (delays decrement; the head of the queue admits at
// delay 0). Returns the number of drivers launched.
func (q *Queue) RunWave(nw *congest.Network, l Launcher) (int, error) {
	if len(q.pending) == 0 {
		return 0, nil
	}
	cfg := q.cfg
	claim := q.startScan(nw)
	wave := q.wave[:0]

	next := q.pending[:0]
	truncated := false
	for _, it := range q.pending {
		if truncated || len(wave) >= cfg.Wave {
			// Over the cap: stop admitting; order among the rest is
			// untouched, so no edge blocking is needed either.
			truncated = true
			next = append(next, it)
			continue
		}
		k := edgeOf(it.ev)
		if it.delay > 0 {
			it.delay--
			q.blocked[k] = true
			next = append(next, it)
			continue
		}
		if q.blocked[k] {
			// A not-yet-admitted earlier event touches the same edge:
			// admitting now would reorder same-edge operations.
			it.retries++
			q.stats.Retries++
			it.delay = retryDelay(cfg, it)
			next = append(next, it)
			continue
		}
		dec := l.Admit(it.ev, claim)
		switch {
		case dec.Deferred:
			it.retries++
			q.stats.Retries++
			it.delay = retryDelay(cfg, it)
			q.blocked[k] = true
			next = append(next, it)
		case dec.Inline:
			q.stats.Inline++
			q.stats.Actions[dec.Action.String()]++
			if dec.Action == Skipped {
				q.stats.Skipped++
			} else {
				Inline(nw, dec.Op, dec.Action)
			}
		default:
			q.stats.Repairs++
			// Block the admitted event's edge for the rest of the scan:
			// a later same-wave event on this pair (even an
			// inline-eligible one, e.g. an unmarked delete of a
			// just-inserted edge) must not mutate the edge the driver
			// is about to repair.
			q.blocked[k] = true
			wave = append(wave, launchItem{idx: it.idx, op: dec.Op, driver: dec.Driver})
		}
	}
	q.pending = next
	q.wave = wave[:0] // retain capacity; entries are cleared below
	if len(wave) == 0 {
		// Every pending event is sitting out a backoff delay; the scan
		// above already decremented them, and the head of the queue
		// always admits at delay 0, so this terminates.
		return 0, nil
	}

	waveNo := uint64(q.stats.Waves)
	q.stats.Waves++
	if _, err := runWave(nw, waveNo, wave); err != nil {
		return len(wave), err
	}
	for i := range wave {
		q.stats.Actions[wave[i].driver.Action().String()]++
		l.Release(wave[i].driver)
		wave[i].driver = nil
	}
	return len(wave), nil
}

// startScan begins an admission scan: it brings the wave-start component
// labels up to date with the marked forest, frees every claim and edge
// block, and returns the claim the scan hands its launcher.
func (q *Queue) startScan(nw *congest.Network) Claim {
	q.labels.update(nw)
	clear(q.claimed)
	clear(q.blocked)
	return Claim{q: q}
}

// runWave runs admitted repairs as one engine wave: bracketed for the
// attached observer, spawned as continuation tasks in admission order, run
// to quiescence, and their staged marks applied. Run returning implies
// full quiescence: every repair's staged marks (including far-half markx)
// are in flight no longer. It returns the wave's total cost; each repair's
// RepairDone carries the even split, since the engine interleaves the
// wave's repairs. On an engine error nothing is applied and the brackets
// stay open.
func runWave(nw *congest.Network, waveNo uint64, wave []launchItem) (Cost, error) {
	obs := nw.Obs()
	baseMsgs, baseBits := nw.Totals()
	baseTime := nw.Now()
	if obs != nil {
		for i := range wave {
			obs.RepairStart(wave[i].op, baseTime)
		}
	}
	for i := range wave {
		nw.SpawnStep("repair", waveNo, uint64(wave[i].idx), wave[i].driver)
	}
	if err := nw.Run(); err != nil {
		return Cost{}, err
	}
	nw.ApplyStaged()
	msgs, bits := nw.Totals()
	cost := Cost{Messages: msgs - baseMsgs, Bits: bits - baseBits, Time: nw.Now() - baseTime}
	if obs != nil {
		n := uint64(len(wave))
		for i := range wave {
			obs.RepairDone(wave[i].op, wave[i].driver.Action().String(), nw.Now(), cost.Time, cost.Messages/n, cost.Bits/n)
		}
	}
	return cost, nil
}

// Drain runs waves until the pending backlog is empty.
func (q *Queue) Drain(nw *congest.Network, l Launcher) error {
	for len(q.pending) > 0 {
		if _, err := q.RunWave(nw, l); err != nil {
			return err
		}
	}
	return nil
}

// PendingEvent is one suspended backlog entry.
type PendingEvent struct {
	Idx     int             `json:"idx"`
	Event   faultplan.Event `json:"event"`
	Delay   int             `json:"delay"`
	Retries int             `json:"retries"`
}

// QueueState is a queue's serializable suspension record: the pending
// backlog with its backoff schedule, the next event index, and the
// cumulative accounting. Together with Config it reconstructs the queue
// exactly (see ResumeQueue) — a daemon checkpoint embeds one.
type QueueState struct {
	NextIdx int            `json:"next_idx"`
	Pending []PendingEvent `json:"pending,omitempty"`
	Stats   Stats          `json:"stats"`
}

// Suspend captures the queue's current state. The queue remains usable;
// the returned state deep-copies everything it shares with it.
func (q *Queue) Suspend() QueueState {
	st := QueueState{NextIdx: q.nextIdx, Stats: q.stats}
	st.Stats.Actions = make(map[string]int, len(q.stats.Actions))
	for k, v := range q.stats.Actions {
		st.Stats.Actions[k] = v
	}
	for _, it := range q.pending {
		st.Pending = append(st.Pending, PendingEvent{Idx: it.idx, Event: it.ev, Delay: it.delay, Retries: it.retries})
	}
	return st
}

// ResumeQueue reconstructs a suspended queue. The config must match the
// one the state was captured under (the backoff hash depends on it); the
// caller owns that contract.
func ResumeQueue(cfg Config, st QueueState) *Queue {
	q := NewQueue(cfg)
	q.nextIdx = st.NextIdx
	if st.Stats.Actions != nil {
		q.stats = st.Stats
		q.stats.Actions = make(map[string]int, len(st.Stats.Actions))
		for k, v := range st.Stats.Actions {
			q.stats.Actions[k] = v
		}
	}
	for _, pe := range st.Pending {
		q.pending = append(q.pending, &item{idx: pe.Idx, ev: pe.Event, delay: pe.Delay, retries: pe.Retries})
	}
	return q
}

// Run drains the event list through the launcher in waves (see
// Queue.RunWave for the wave discipline). Returns the accounting and the
// first driver/engine error.
func Run(nw *congest.Network, events []faultplan.Event, l Launcher, cfg Config) (Stats, error) {
	q := NewQueue(cfg)
	q.Push(events...)
	err := q.Drain(nw, l)
	return q.stats, err
}

// Inline brackets an update resolved without a driver (a no-op) for the
// attached observer: a zero-cost RepairStart/RepairDone pair at the
// current time.
func Inline(nw *congest.Network, op string, action Action) {
	if obs := nw.Obs(); obs != nil {
		obs.RepairStart(op, nw.Now())
		obs.RepairDone(op, action.String(), nw.Now(), 0, 0, 0)
	}
}

func retryDelay(cfg Config, it *item) int {
	if it.retries > maxRetries {
		// Past the backoff budget: retry head-of-line every wave.
		return 0
	}
	return backoffDelay(cfg.Seed, it.idx, it.retries, maxBackoff)
}
