// Package tree implements the distributed primitives every algorithm in
// the paper is built from, as message-level automata over the marked
// (tree) edges of a congest.Network:
//
//   - broadcast-and-echo (paper §1, [13]): the root broadcasts a message
//     down its tree; echoes aggregate values from the leaves back up.
//     All of TestOut, HP-TestOut, FindMin and FindAny are one or more of
//     these with different local-compute/aggregate functions.
//
//   - leader election by median finding (paper §3.3, ideas of [18]):
//     leaves start echoes; tokens converge to one median or two adjacent
//     medians (higher ID wins). On a fragment that is not a tree (the
//     Build-ST cycle case, §4.2) the nodes on the cycle never finish and
//     detect this on timeout — modelled as engine quiescence.
//
// One Protocol instance is attached to a network and registers the message
// kinds once; sessions keep concurrent executions independent.
//
// # Invariants
//
// Per-node broadcast-and-echo slots. Each node's broadcast-and-echo state
// (beState) lives inline in a dense slot array owned by the Protocol,
// indexed by the node's storage slot (NodeState.Slot, not its ID) and
// stamped with the session ID (0 = free). The
// child loop sends down by half-edge position (congest.SendAt) and
// records the parent's position, so the echo goes up by position too. A
// node in two live sessions at once keeps the second session's state in
// its NodeState session vector, the overflow.
//
// Storage in fragment order. Fanout.Run re-lays out node storage
// (congest.Network.Relayout) after each phase's election and before it
// spawns a fragment: fragments in leader order, each in DFS preorder of
// its marked tree from the leader, children in Edges order. Slots and
// the election buffer index by storage slot, so they follow the states
// without moving: between Runs no broadcast-and-echo is in flight and
// every slot is free. A fixed rule skips the re-layout where it cannot
// pay: networks under relayoutMinNodes nodes or of average degree above
// relayoutMaxDegree, and phases whose fragments are all single nodes.
// Only a protocol that asks for it (Fanout.OrderStorage) re-lays out:
// Build MST does, GHS and Build ST, whose phases do not repay the move,
// do not.
//
// One echo lane. Every echo is a fixed handful of words (Spec.Width, at
// most MaxWidth), and every echo folds into the receiving node's
// accumulator on arrival (Spec.Fold), so a node never holds its
// children's echoes. A one-word echo accumulates in the slot and travels
// in Message.U; a wider one accumulates in a *[MaxWidth]uint64 block the
// node draws when the broadcast arrives, which then travels up as its
// echo and returns to a free list once its parent has folded it. The
// root copies a wide echo into Spec.Out, which the runner that started
// the session owns.
//
// Zero-alloc steady state. A warm Protocol performs whole
// broadcast-and-echoes and election waves without allocating: per-node
// automaton states live in the slot array, echo blocks recycle through
// lane-indexed free lists, session→spec bindings live in a slot-indexed
// table keyed by the engine's recycled session slots (validated by the
// full packed ID, so a recycled slot never aliases), election receipts
// are bitmasks over each node's sorted edge slice in a reusable buffer,
// and OnDown hooks send through an Emit value, not a per-node closure.
//
// Shard safety. Handlers route every engine call through the *Network
// view they are handed, so sends and completions land in the correct
// shard lane; a handler touches only the slot of the node it runs at,
// and a node's messages are all handled in one shard, so workers never
// share a slot. Each lane draws and frees echo blocks on its own free
// list; a block freed in another lane than it was drawn in comes back
// when the driver side, which runs while no worker does, evens the lists
// out.
// Drivers write spec-table entries between rounds; a handler only reads
// them, and only the root node's handler (one node, hence one shard)
// clears a session's entry — the table needs no locks.
//
// Derived randomness. This package draws nothing. Callers seed their
// node-local random choices from protocol values only (the run seed, the
// phase, the node ID: see the fragmentSeed and coinRand helpers in mst
// and st), never from session IDs or any engine state, so draws are
// identical across slot-recycling orders, shard counts and the number of
// sessions opened before a build.
//
// Tree discipline. A broadcast-and-echo must run on a marked subgraph
// that is a tree: a second broadcast arriving at a node in the same
// session panics (a cycle), and Build-ST handles cycles via elections,
// never via broadcast-and-echo.
package tree
