// Package congest is the communications substrate: a message-level
// simulator of the CONGEST model the paper runs in.
//
// A Network holds one NodeState per processor. Processors exchange
// Messages only along existing links; every message is counted (count and
// bits) and must fit the O(log(n+u)) budget — with the model word fixed at
// w = 64 bits, a message is at most a constant number of words.
//
// Protocol logic comes in three forms:
//
//   - handlers: per-message automaton steps registered by Kind. A handler
//     may read/write only the local state of the receiving node and send
//     further messages. This is where broadcast-and-echo, leader election,
//     probes etc. live (package tree and friends).
//
//   - goroutine drivers (Proc): a sequential program written as an
//     ordinary Go function that parks on Await — the Borůvka phase
//     controllers and the repair-wave controller. Each is spawned
//     before Run (Spawn) and scheduled cooperatively: at any instant
//     either the engine or exactly one driver executes, so runs are
//     deterministic for a fixed seed and free of data races by
//     construction.
//
//   - continuation drivers (Task wrapping a StepDriver): driver programs
//     as explicit state machines stepped by the engine with no goroutine,
//     no channels and no parked stack. Every fan-out uses these — one
//     driver per fragment per Borůvka phase, a million at 1M nodes —
//     spawned from a Proc with GoStepTagged and joined with WaitTasks.
//     A single repair runs as one task spawned before Run (SpawnStep).
//     Procs and tasks share one run queue and one scheduling order.
//
// Two schedulers implement the paper's two timing models: the synchronous
// scheduler delivers in lockstep rounds (messages sent in round r arrive
// in round r+1); the asynchronous scheduler delivers tick groups — all
// messages sharing the earliest pending virtual time, extracted in bounded
// windows from a calendar queue — with seeded pseudo-random delays and
// per-link FIFO order. Emissions landing inside the open window are routed
// to their exact reference position, so windowed (and sharded) async
// delivery is byte-identical to a one-event-at-a-time replay.
//
// # Invariants
//
// Delivery. Each batch is delivered in windows of 64 messages: a tight
// loop first touches every destination's NodeState (warmNode), so their
// cache misses overlap, then the window's handlers run in batch order.
// One helper (Network.deliver) serves the inline path and the shard
// workers. Callers that already walk a node's Edges send by half-edge
// position (SendAt, SendUAt): one load checks the position, and a stale
// one falls back to the neighbour search, so the effect is exactly Send's.
//
// Zero-alloc hot paths. Steady-state message delivery allocates nothing:
// message kinds are interned to small integer KindIDs (dispatch via
// slice, counters via array), Message structs are recycled through free
// lists, each node's neighbour index is the sorted Edges slice itself
// (binary search, no side map), and the async scheduler is a bucketed
// calendar queue instead of a global binary heap. Driver fan-out is
// pooled: Task objects recycle within one Run (WaitTasks releases, Run
// teardown drains), and tagged names format lazily. testing.AllocsPerRun
// gates in this package pin all of it.
//
// Session slot recycling. A SessionID packs a recycled slot index with a
// monotonically increasing creation serial; the slot indexes the engine's
// flat session table and the serial is the slot's generation stamp, so a
// stale ID can never alias a reused slot. A session's result is consumed
// exactly once (completion hands it straight to a parked waiter, or a
// later Await/Step pops it), which is what lets the slot recycle
// immediately. Serials are what deterministic derived randomness hashes
// (tree.Protocol.NodeRand): they never depend on recycling order or shard
// count.
//
// Determinism. For a fixed seed, every run is byte-identical in all
// observables — delivery order, driver scheduling, session serials,
// derived random draws, every counter — regardless of shard count
// (WithShards). Spawns and completions
// append to one run queue drained in order; the sharded round barrier
// replays worker effects in single-threaded order before the queue is
// drained again (see shard.go and the shard-view restrictions below).
//
// Shard views. During a sharded round, handlers run on per-shard *Network
// views whose mutating operations divert into an ordered per-shard lane;
// operations that would tie global state to delivery interleaving
// (NewSession, Rand) panic on a view. Handlers must route every engine
// call through the *Network they are handed, never a captured root
// network. Near-empty rounds are delivered inline on the engine goroutine
// (the reference order) rather than paying the worker barrier.
package congest
