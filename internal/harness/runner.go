package harness

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"kkt/internal/congest"
)

// RunConfig tunes a runner invocation.
type RunConfig struct {
	// Trials is the number of seeded trials per scenario (default 4).
	Trials int
	// Seed is the base seed; per-trial seeds derive from it, the scenario
	// name and the trial index, so runs are reproducible end to end.
	Seed uint64
	// Workers bounds the worker pool (default GOMAXPROCS).
	Workers int
	// Shards is the per-trial shard count handed to the simulator
	// (default 1 = single-threaded trials). Sharding is a wall-clock knob
	// only: the sharded engine is observably identical to the
	// single-threaded one, so reports stay byte-identical at any value.
	// Intra-trial parallelism composes with the trial-level pool — total
	// concurrency is roughly Workers × Shards, so large sweeps should
	// lower Workers when raising Shards.
	Shards int
	// Timeout bounds each trial's wall-clock time (0 = unbounded). A timed-
	// out trial aborts at the next delivery batch with a structured
	// congest.WatchdogError and counts as Failed; successful trials are
	// untouched, so seeded reports stay byte-identical with or without a
	// (generous) timeout.
	Timeout time.Duration
	// OnTrialDone, if set, is called after every finished trial (from
	// worker goroutines; must be safe for concurrent use). For progress
	// reporting.
	OnTrialDone func(spec Spec, trial int)
	// Observe, if set, supplies a trace observer per trial (called from
	// worker goroutines before the trial starts; must be safe for
	// concurrent use). Observers are passive: reports stay byte-identical
	// whether Observe is set or not. Return nil to leave a trial
	// unobserved.
	Observe func(spec Spec, trial int) congest.Observer
}

// Normalized returns the config with unset or out-of-range fields
// replaced by their defaults — the exact values a run will use, so
// callers (e.g. progress displays) can rely on Trials and Workers.
func (c RunConfig) Normalized() RunConfig {
	if c.Trials <= 0 {
		c.Trials = 4
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// Result is one scenario's outcome: the per-trial metrics in trial order
// and their deterministic aggregation.
type Result struct {
	Spec    Spec           `json:"spec"`
	Trials  []TrialMetrics `json:"trials"`
	Summary Summary        `json:"summary"`
}

// Run executes one scenario.
func Run(spec Spec, cfg RunConfig) Result {
	return RunAll([]Spec{spec}, cfg)[0]
}

// RunAll executes every (scenario, trial) pair on a bounded worker pool.
// Each trial runs on a private network, so trials parallelize freely; the
// results land in preassigned slots, making the output independent of
// completion order — identical seeds give identical results at any worker
// count.
func RunAll(specs []Spec, cfg RunConfig) []Result {
	cfg = cfg.Normalized()
	results := make([]Result, len(specs))
	byKind := make([][]map[string]congest.KindCount, len(specs))
	for i, s := range specs {
		results[i] = Result{Spec: s, Trials: make([]TrialMetrics, cfg.Trials)}
		byKind[i] = make([]map[string]congest.KindCount, cfg.Trials)
	}

	type job struct{ si, ti int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				spec := specs[j.si]
				seed := trialSeed(cfg.Seed, spec.Name, j.ti)
				var obs congest.Observer
				if cfg.Observe != nil {
					obs = cfg.Observe(spec, j.ti)
				}
				var ctx context.Context
				cancel := func() {}
				if cfg.Timeout > 0 {
					ctx, cancel = context.WithTimeout(context.Background(), cfg.Timeout)
				}
				m, kinds, err := RunTrialContext(ctx, spec, seed, cfg.Shards, obs)
				cancel()
				m.Trial = j.ti
				m.Seed = seed
				if err != nil {
					m.Error = err.Error()
				}
				results[j.si].Trials[j.ti] = m
				byKind[j.si][j.ti] = kinds
				if cfg.OnTrialDone != nil {
					cfg.OnTrialDone(spec, j.ti)
				}
			}
		}()
	}
	for si := range specs {
		for ti := 0; ti < cfg.Trials; ti++ {
			jobs <- job{si, ti}
		}
	}
	close(jobs)
	wg.Wait()

	for i := range results {
		results[i].Summary = summarize(results[i].Trials, byKind[i])
	}
	return results
}

// RunNamed looks scenarios up in the registry and runs them. Unknown
// names error before any work starts.
func RunNamed(reg *Registry, names []string, cfg RunConfig) ([]Result, error) {
	specs := make([]Spec, len(names))
	for i, n := range names {
		s, ok := reg.Get(n)
		if !ok {
			return nil, fmt.Errorf("harness: unknown scenario %q", n)
		}
		specs[i] = s
	}
	return RunAll(specs, cfg), nil
}
