// Package harness is the experiment engine over the CONGEST simulator: a
// registry of declarative scenarios (graph family × size × scheduler ×
// algorithm × fault plan), a parallel runner executing many seeded
// trials on a bounded worker pool, and deterministic aggregation of the
// per-trial cost metrics (messages, bits, time, repair actions) into
// mean/p50/p99 summaries. The cmd/kkt CLI is a thin shell over this
// package.
//
// # Invariants
//
// Seed identity. A trial is identified by (scenario, seed) alone.
// Worker count and shard count (RunConfig.Shards) are execution knobs:
// identical seeds produce byte-identical serialized reports at any value
// of either. The cross-check in shard_test.go enforces this over the
// whole small suite, and CI diffs full bench reports at --shards 1 vs 4.
//
// Isolation. The runner builds one private Network per trial; trials
// share no state, which is why they parallelize freely and why a trial
// panic (converted to a TrialMetrics.Error) cannot poison a sweep.
//
// Serialization. TrialMetrics fields describing execution footprint
// (Shards, PeakDriverTasks, PeakLiveDrivers, HeapSysMB) carry json:"-": they are observations about the process,
// not the simulated protocol, and serializing them would trivially break
// the report byte-identity contract. Report ordering is deterministic —
// scenarios sort by name, trials by index — so byte comparison of
// reports is meaningful.
package harness
