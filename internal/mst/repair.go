package mst

import (
	"fmt"

	"kkt/internal/admit"
	"kkt/internal/congest"
	"kkt/internal/findmin"
	"kkt/internal/tree"
)

// Action describes what a repair operation did.
type Action int

const (
	// NoOp: the change did not affect the maintained forest.
	NoOp Action = iota + 1
	// Reconnected: a replacement edge was found and marked.
	Reconnected
	// Bridge: the deleted edge was a bridge; the component stays split.
	Bridge
	// Added: the inserted edge joined two trees (or beat nothing).
	Added
	// Swapped: the inserted/cheapened edge replaced the heaviest path
	// edge.
	Swapped
	// Kept: the inserted/cheapened edge lost to the existing path.
	Kept
	// Failed: the randomized search gave up (probability ~ n^-c for the
	// Full variants); the forest may be left disconnected.
	Failed
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case NoOp:
		return "no-op"
	case Reconnected:
		return "reconnected"
	case Bridge:
		return "bridge"
	case Added:
		return "added"
	case Swapped:
		return "swapped"
	case Kept:
		return "kept"
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Report is the outcome and cost of one repair operation.
type Report struct {
	Action Action
	admit.Cost
}

// RepairConfig tunes the repair operations.
type RepairConfig struct {
	Seed uint64
	// FindMin is the replacement-search configuration; the paper uses
	// FindMin (Full) for expected-cost repair, FindMin-C for worst-case.
	FindMin findmin.Config
}

// DefaultRepair returns the paper-faithful configuration (FindMin, i.e.
// expected O(n log n / log log n) messages per delete).
func DefaultRepair(seed uint64) RepairConfig {
	return RepairConfig{Seed: seed, FindMin: findmin.Defaults(findmin.Full)}
}

// Delete processes the deletion of link {a,b} (paper §3.2 Delete(u,v)):
// the link is removed from the topology; if it was a tree edge, the
// smaller-ID endpoint initiates FindMin over its remaining tree and marks
// the replacement, if any. The network must be idle (impromptu repair is
// between-updates state-free).
func Delete(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, cfg RepairConfig) (Report, error) {
	existed, wasMarked := nw.DeleteLink(a, b)
	if !existed {
		return Report{}, fmt.Errorf("mst: delete of non-existent link {%d,%d}", a, b)
	}
	if !wasMarked {
		return noOp(nw, "mst.delete"), nil
	}
	return runRepair(nw, pr, "mst.delete", true, a, b, cfg.Seed^uint64(a)<<32^uint64(b), cfg.FindMin)
}

// Insert processes the insertion of link {a,b} with the given raw weight
// (paper §3.2 Insert(u,v)): the smaller-ID endpoint checks whether the
// other endpoint is in its tree and, if so, finds the heaviest edge on the
// tree path between them with one broadcast-and-echo; the new edge
// replaces it if lighter. Deterministic, O(|T|) messages.
func Insert(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, raw uint64, cfg RepairConfig) (Report, error) {
	if err := nw.InsertLink(a, b, raw); err != nil {
		return Report{}, err
	}
	return runRepair(nw, pr, "mst.insert", false, a, b, 0, cfg.FindMin)
}

// WeightChange processes a weight change on the existing link {a,b}
// (paper Theorem 1.2 treats increases like deletions and decreases like
// insertions).
func WeightChange(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, newRaw uint64, cfg RepairConfig) (Report, error) {
	he := nw.Node(a).EdgeTo(b)
	if he == nil {
		return Report{}, fmt.Errorf("mst: weight change on non-existent link {%d,%d}", a, b)
	}
	oldRaw, wasMarked := he.Raw, he.Marked
	if newRaw == oldRaw {
		return noOp(nw, "mst.reweight"), nil
	}
	if err := nw.SetRawWeight(a, b, newRaw); err != nil {
		return Report{}, err
	}
	switch {
	case wasMarked && newRaw > oldRaw:
		// Increase on a tree edge: both endpoints observe the change and
		// unmark; then repair exactly like a deletion, except the edge
		// itself stays available as its own (possibly best) replacement.
		nw.SetMark(a, b, false)
		return runRepair(nw, pr, "mst.reweight", true, a, b, cfg.Seed^uint64(a)<<32^uint64(b)^0x5851f42d4c957f2d, cfg.FindMin)
	case !wasMarked && newRaw < oldRaw:
		// Decrease on a non-tree edge: like an insertion.
		return runRepair(nw, pr, "mst.reweight", false, a, b, 0, cfg.FindMin)
	default:
		// Decrease on a tree edge / increase on a non-tree edge: the MSF
		// is unchanged.
		return noOp(nw, "mst.reweight"), nil
	}
}

// noOp reports an update that leaves the forest unchanged, with the
// zero-cost observer bracket every resolved update gets.
func noOp(nw *congest.Network, op string) Report {
	admit.Inline(nw, op, NoOp.String())
	return Report{Action: NoOp}
}

// runRepair runs one repair machine on its own, initiated by the
// smaller-ID endpoint (the paper's initiator) with the other as peer.
func runRepair(nw *congest.Network, pr *tree.Protocol, op string, deleteStyle bool, a, b congest.NodeID, seed uint64, cfg findmin.Config) (Report, error) {
	if b < a {
		a, b = b, a
	}
	sr := &stormRepair{nw: nw, pr: pr, fm: findmin.NewMachine()}
	sr.reset(deleteStyle, a, b, seed, cfg)
	c, err := admit.RunOne(nw, op, sr)
	if err != nil {
		return Report{}, err
	}
	return Report{Action: sr.action, Cost: c}, nil
}

// Path-max echo words. A node echoes pathMissing when the target is not in
// its subtree, pathAtTarget when it is the target, and otherwise the
// largest composite weight on the tree path from it down to the target.
// Composites are at least 1<<EdgeNumBits > 1, so the three never collide,
// and the heaviest edge's number is the composite's low EdgeNumBits
// (bitwidth.Layout.SplitComposite).
const (
	pathMissing  uint64 = 0
	pathAtTarget uint64 = 1
)

// pathMaxSpec builds the Insert(u,v) broadcast-and-echo spec: does target
// lie in the root's tree, and if so what is the heaviest edge on the path
// to it? The echo is one word on the unboxed lane; UpBits still charges
// the paper's found flag, composite weight and edge number.
func pathMaxSpec(target congest.NodeID) *tree.Spec {
	return &tree.Spec{
		Down:     target,
		DownBits: 32,
		UpBits:   1 + 64 + 64,
		LocalU: func(node *congest.NodeState, down any) uint64 {
			if node.ID == down.(congest.NodeID) {
				return pathAtTarget
			}
			return pathMissing
		},
		CombineU: func(node *congest.NodeState, down any, acc uint64, from congest.NodeID, child uint64) uint64 {
			if child == pathMissing {
				return acc
			}
			// Extend the child's path by the connecting tree edge. It still
			// exists: a marked edge is deleted only under the repair's admit
			// claim. At most one child's subtree holds the target.
			return max(acc, child, node.EdgeTo(from).Composite)
		},
	}
}

// swapSpec broadcasts "unmark removeEdge, mark addEdge": both endpoints
// of each edge are in the tree and stage their own halves.
func swapSpec(removeEdgeNum, addEdgeNum uint64) *tree.Spec {
	return &tree.Spec{
		Down:     [2]uint64{removeEdgeNum, addEdgeNum},
		DownBits: 128,
		UpBits:   1,
		OnDown: func(node *congest.NodeState, down any, emit tree.Emit) {
			d := down.([2]uint64)
			for i := range node.Edges {
				he := &node.Edges[i]
				if he.EdgeNum == d[0] && he.Marked {
					node.StageUnmark(he.Neighbor)
				}
				if he.EdgeNum == d[1] && !he.Marked {
					node.StageMark(he.Neighbor)
				}
			}
		},
		Combine: func(node *congest.NodeState, down, local any, children []tree.ChildEcho) any {
			return nil
		},
	}
}
