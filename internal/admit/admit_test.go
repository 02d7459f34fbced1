package admit

import (
	"reflect"
	"testing"

	"kkt/internal/faultplan"
)

// TestBackoffDelayPureAndBounded: the backoff delay is a pure function of
// its arguments and always lies in [1, maxBackoff], over a grid of seeds,
// event indices and retry counts.
func TestBackoffDelayPureAndBounded(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0x5eed, 0xdeadbeefcafe, ^uint64(0)} {
		for _, maxBackoff := range []int{1, 2, maxBackoff, 7} {
			seen := make(map[int]bool)
			for idx := 0; idx < 64; idx++ {
				for retries := 0; retries <= maxRetries+2; retries++ {
					d := backoffDelay(seed, idx, retries, maxBackoff)
					if d < 1 || d > maxBackoff {
						t.Fatalf("backoffDelay(%#x, %d, %d, %d) = %d, want in [1, %d]", seed, idx, retries, maxBackoff, d, maxBackoff)
					}
					if again := backoffDelay(seed, idx, retries, maxBackoff); again != d {
						t.Fatalf("backoffDelay(%#x, %d, %d, %d) not pure: %d then %d", seed, idx, retries, maxBackoff, d, again)
					}
					seen[d] = true
				}
			}
			if len(seen) != maxBackoff {
				t.Errorf("seed %#x, maxBackoff %d: delays cover %d of %d values", seed, maxBackoff, len(seen), maxBackoff)
			}
		}
	}
}

// TestRetryDelayPastMaxRetries: within the retry budget an event backs
// off by the seeded delay; past it, it retries head-of-line every wave.
func TestRetryDelayPastMaxRetries(t *testing.T) {
	cfg := Config{Seed: 0x5eed}.withDefaults()
	for retries := 0; retries <= maxRetries+3; retries++ {
		it := &item{idx: 5, retries: retries}
		got := retryDelay(cfg, it)
		want := 0
		if retries <= maxRetries {
			want = backoffDelay(cfg.Seed, it.idx, retries, maxBackoff)
		}
		if got != want {
			t.Errorf("retries=%d: retryDelay = %d, want %d", retries, got, want)
		}
	}
}

// TestSuspendResumeRoundTrip: a resumed queue carries the suspended one's
// next index, backlog (with its backoff schedule) and accounting, and
// neither the suspension record nor the resumed queue shares the Actions
// map with the queue it came from.
func TestSuspendResumeRoundTrip(t *testing.T) {
	cfg := Config{Wave: 4, Seed: 0x5eed}
	q := NewQueue(cfg)
	q.Push(
		faultplan.Event{Op: faultplan.OpDelete, A: 1, B: 2},
		faultplan.Event{Op: faultplan.OpInsert, A: 3, B: 4, Raw: 9},
		faultplan.Event{Op: faultplan.OpWeightChange, A: 2, B: 5, Raw: 17, Stage: "random"},
	)
	q.pending = q.pending[1:] // the first event resolved in an earlier wave
	q.pending[0].delay, q.pending[0].retries = 2, 3
	q.stats.Repairs, q.stats.Inline, q.stats.Waves, q.stats.Retries = 1, 0, 1, 3
	q.stats.Actions["reconnected"] = 1

	st := q.Suspend()
	want := QueueState{
		NextIdx: 3,
		Pending: []PendingEvent{
			{Idx: 1, Event: faultplan.Event{Op: faultplan.OpInsert, A: 3, B: 4, Raw: 9}, Delay: 2, Retries: 3},
			{Idx: 2, Event: faultplan.Event{Op: faultplan.OpWeightChange, A: 2, B: 5, Raw: 17, Stage: "random"}},
		},
		Stats: Stats{Repairs: 1, Waves: 1, Retries: 3, Actions: map[string]int{"reconnected": 1}},
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("Suspend = %+v, want %+v", st, want)
	}
	r := ResumeQueue(cfg, st)
	if r.nextIdx != st.NextIdx || r.Pending() != len(st.Pending) {
		t.Fatalf("resumed nextIdx=%d pending=%d, want %d and %d", r.nextIdx, r.Pending(), st.NextIdx, len(st.Pending))
	}
	if got := r.Suspend(); !reflect.DeepEqual(got, st) {
		t.Fatalf("resumed queue suspends to %+v, want %+v", got, st)
	}
	if !reflect.DeepEqual(r.Stats(), st.Stats) {
		t.Errorf("resumed Stats = %+v, want %+v", r.Stats(), st.Stats)
	}

	st.Stats.Actions["reconnected"] = 99
	if q.stats.Actions["reconnected"] != 1 {
		t.Error("Suspend shares its Actions map with the queue")
	}
	if r.stats.Actions["reconnected"] != 1 {
		t.Error("ResumeQueue shares its Actions map with the suspension record")
	}
}
