// Package congest is the communications substrate: a message-level
// simulator of the CONGEST model the paper runs in.
//
// A Network holds one NodeState per processor. Processors exchange
// Messages only along existing links; every message is counted (count and
// bits) and must fit the O(log(n+u)) budget — with the model word fixed at
// w = 64 bits, a message is at most a constant number of words.
//
// Protocol logic comes in two forms:
//
//   - handlers: per-message automaton steps registered by Kind. A handler
//     may read/write only the local state of the receiving node and send
//     further messages. This is where broadcast-and-echo, leader election,
//     probes etc. live (package tree and friends).
//
//   - continuation drivers (Task wrapping a StepDriver): driver programs
//     as explicit state machines stepped by the engine on the caller's
//     goroutine, with no goroutine, no channels and no parked stack. Every
//     fan-out uses these — one driver per fragment per Borůvka phase, a
//     million at 1M nodes — and so does every repair. Tasks are spawned
//     between Runs (SpawnStep) and share one run queue: at any instant
//     either the engine or exactly one Step executes, so runs are
//     deterministic for a fixed seed and free of data races by
//     construction.
//
// What sequences the phases — the Borůvka loops of mst, st and ghs, the
// flood, the repair-wave controller — is plain code between Runs: it
// opens sessions or spawns tasks, calls Run as its barrier (Run returns
// exactly at quiescence, the paper's "wait until i·maxTime(n)"), reads
// results with Take and applies staged marks.
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
// Identity and storage. A node's identity is its ID, 1..n: messages,
// sessions, draws and reports name nodes by ID, and Node(id) finds the
// state. Where that state sits is a separate thing, its storage slot
// (NodeState.Slot): the index of the state in the network's array of
// node states, whose half-edge windows lie in one backing array in the
// same order. NewNetwork puts node v at slot v. Relayout moves states
// and windows into another order in place, between Runs, and nothing
// observable changes; per-node side arrays that protocol layers keep
// (package tree's broadcast-and-echo slots) index by slot, so they
// follow. Build MST re-lays out storage in fragment order at every
// Borůvka phase, so the nodes a fragment's messages visit sit together.
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
// pooled: Task objects go back to a free list when their Run ends and are
// reused by the next spawns, and tagged names format lazily.
// testing.AllocsPerRun gates in this package pin all of it.
//
// Session slot recycling. A SessionID packs a recycled slot index with a
// monotonically increasing creation serial; the slot indexes the engine's
// flat session table and the serial is the slot's generation stamp, so a
// stale ID can never alias a reused slot. A session's result is consumed
// exactly once (completion hands it straight to a parked task, or a later
// Step or Take pops it), which is what lets the slot recycle immediately.
// A session nobody consumes holds its slot for the network's lifetime;
// DriverStats.OpenSessions counts the slots in use.
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
