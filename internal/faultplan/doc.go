// Package faultplan compiles declarative adversarial fault plans into
// reproducible topology-event lists for the repair harness.
//
// A Plan names targeting strategies (partition-and-heal, correlated
// bursts, bridge/tree-edge/hub deletes, a uniform background block);
// Compile expands it against a concrete topology and seed into a flat
// []Event the harness feeds to the repair admission queue.
//
// Invariants:
//
//   - Determinism: Compile(plan, g, forest, seed) is a pure function of
//     its arguments — same inputs, byte-identical event list. All
//     randomness comes from the seed, and the model is walked in sorted
//     adjacency order (forest edges are a flag on each adjacency entry,
//     not a map).
//   - Self-consistency: the compiler maintains its own mutable model of
//     the evolving topology and never emits an event that is invalid
//     against that model — no delete of an absent edge, no insert of a
//     present one, weight changes only on surviving edges. (The admission
//     queue still tolerates invalid events defensively, because the
//     model's forest approximation is best-effort — see below.)
//   - Best-effort targeting: the model's forest starts as the reference
//     forest and only shrinks on deletion. Real repairs re-mark
//     replacement edges the compiler cannot predict, so "tree edge"
//     targeting degrades to "former tree edge" late in a plan. Targeting
//     guides the adversary; correctness never depends on it.
//   - Minimization: every event records its Stage, so a failing trial
//     reduces to (seed, plan prefix): replay the compiled list up to the
//     failing index to reproduce exactly.
package faultplan
