// Wave safety
//
// The queue guarantees that the repairs of one wave cannot observe each
// other, so running them concurrently on one engine Run produces a valid
// forest — the same invariant each repair restores in isolation.
//
// The claims discipline: before a wave runs, every node carries the label
// of its component of the marked edges (the wave-start forest). A
// delete of a marked edge claims the component containing it; an insert
// (and its weight-change analogue) claims both endpoints' components; a
// weight increase on a marked edge claims its component. Claims are
// exclusive — a second repair needing a claimed label defers to a later
// wave.
//
// Each event's topology mutation (DeleteLink, InsertLink, SetRawWeight,
// unmark) is applied at admission, before the wave's engine Run starts, so
// every repair in the wave executes against one fixed post-admission
// topology. During the Run, a repair only traverses marked edges of its
// claimed components (FindMin/FindAny surveys, path-max and swap
// broadcast-and-echoes all walk the tree from an endpoint of the repaired
// edge), and the marks it produces are staged, not applied: a delete's
// replacement edge reconnects the two claimed halves of its own
// component, an insert's mark joins its two claimed components. Staged
// marks therefore land entirely inside claimed territory, and no two
// repairs share a claim — so no repair can see another's traversal or
// staged marks. One ApplyStaged at wave end commits them all, and the next
// wave's labels are brought up to date from the result.
//
// Maintained labels: the labels are kept across the waves of one network,
// not recomputed. The queue turns on the network's mark log
// (congest.Network.LogMarks), which records every mark flip: admission's
// DeleteLink of a marked edge and SetMark unmarks, and ApplyStaged's
// commits. At wave start the flips net out per edge into removals and
// additions. Each removal splits one component; walking both halves
// alternately (Even and Shiloach, JACM 1981) over the forest without the
// additions finds the smaller half in O(its size), and it gets a fresh
// label. Each addition that joins two components relabels the smaller
// one. So a wave's bookkeeping is proportional to the small sides its
// repairs touched, not to n. The labels are rebuilt by a full walk on a
// network the queue has not seen, when the log is incomplete (SetForest
// rewrote the marks), or when two removals fall under one label. The
// claims discipline rules that last case out: a claimed component runs
// one repair, and a repair removes at most one of its edges (the deleted
// or unmarked edge, or the path maximum an insert swaps out). Claims only
// compare labels, so any labelling with the component partition admits
// the same events as the canonical one.
//
// Rooting from the labels: every admission-time mark change (DeleteLink
// of a marked edge, an unmark) happens under a claim, and drivers run only
// after the scan, so during a scan an unclaimed component keeps its
// wave-start marks and its label and size are exact. An insert-style
// repair changes no mark at admission, and it claims both endpoints'
// components just before it is rooted, so Claim.Root compares their
// labels' sizes without a walk. A delete-style repair has just cut its
// own component, so Root walks the two halves across the cut instead.
//
// Inline admissions (delete of an unmarked edge, no-op weight changes) may
// touch unclaimed components, but they only add or remove NON-tree edges
// or reweight edges in no-op directions before the Run starts; a
// concurrent repair's search then sees the post-admission candidate edge
// set, which equals the final topology, and its optimality check
// (minimum cut edge, path-max comparison) is exactly the forest invariant
// with respect to those final weights.
//
// Ordering: events on the same unordered node pair must apply in list
// order (the compiler emits heal inserts for earlier partition deletes).
// During a wave scan, any event that is not admitted marks its edge
// blocked, and later same-edge events defer; admitted events serialize
// same-edge successors automatically, because the mutated pair's
// components are claimed.
//
// Determinism: admission order is scan order; backoff delays are a pure
// hash of (seed, event index, retry count); wave drivers are spawned as
// continuation tasks in admission order on one deterministic engine Run.
// Reports are therefore byte-identical at any shard count, and a failure
// minimizes to (seed, plan prefix).
package admit
