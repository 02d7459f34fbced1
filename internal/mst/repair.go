package mst

import (
	"fmt"

	"kkt/internal/admit"
	"kkt/internal/congest"
	"kkt/internal/faultplan"
	"kkt/internal/findmin"
	"kkt/internal/tree"
)

// Action describes what a repair operation did: admit.Action, whose
// values an MSF repair produces are named here.
type Action = admit.Action

const (
	// NoOp: the change did not affect the maintained forest.
	NoOp = admit.NoOp
	// Reconnected: a replacement edge was found and marked.
	Reconnected = admit.Reconnected
	// Bridge: the deleted edge was a bridge; the component stays split.
	Bridge = admit.Bridge
	// Added: the inserted edge joined two trees.
	Added = admit.Added
	// Swapped: the inserted/cheapened edge replaced the heaviest path
	// edge.
	Swapped = admit.Swapped
	// Kept: the inserted/cheapened edge lost to the existing path.
	Kept = admit.Kept
	// Failed: the randomized search gave up (probability ~ n^-c for the
	// Full variants); the forest may be left disconnected.
	Failed = admit.Failed
)

// Report is the outcome and cost of one repair operation.
type Report = admit.Report

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
	return admit.Apply(nw, pr, msf(pr, cfg), faultplan.Event{Op: faultplan.OpDelete, A: uint32(a), B: uint32(b)})
}

// Insert processes the insertion of link {a,b} with the given raw weight
// (paper §3.2 Insert(u,v)): the smaller-ID endpoint checks whether the
// other endpoint is in its tree and, if so, finds the heaviest edge on the
// tree path between them with one broadcast-and-echo; the new edge
// replaces it if lighter. Deterministic, O(|T|) messages.
func Insert(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, raw uint64, cfg RepairConfig) (Report, error) {
	return admit.Apply(nw, pr, msf(pr, cfg), faultplan.Event{Op: faultplan.OpInsert, A: uint32(a), B: uint32(b), Raw: raw})
}

// WeightChange processes a weight change on the existing link {a,b}
// (paper Theorem 1.2 treats increases like deletions and decreases like
// insertions).
func WeightChange(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, newRaw uint64, cfg RepairConfig) (Report, error) {
	return admit.Apply(nw, pr, msf(pr, cfg), faultplan.Event{Op: faultplan.OpWeightChange, A: uint32(a), B: uint32(b), Raw: newRaw})
}

// NewStormLauncher returns the admission-queue launcher maintaining the
// MSF on nw/pr.
func NewStormLauncher(nw *congest.Network, pr *tree.Protocol, cfg RepairConfig) *admit.Repairer[*findmin.Machine] {
	return admit.NewRepairer(nw, pr, msf(pr, cfg))
}

// msf describes the maintained MSF to the shared repair machine: FindMin
// reconnects deletes, the path-max echo settles inserts, and weight
// changes are admitted by reweight.
func msf(pr *tree.Protocol, cfg RepairConfig) admit.Structure[*findmin.Machine] {
	return admit.Structure[*findmin.Machine]{
		DeleteOp:  "mst.delete",
		InsertOp:  "mst.insert",
		Seed:      cfg.Seed,
		NewSearch: findmin.NewMachine,
		Arm: func(m *findmin.Machine, root congest.NodeID, seed uint64) {
			m.Reset(pr, root, seed, cfg.FindMin)
		},
		Probe:    pathMaxSpec,
		Settle:   settle,
		Reweight: reweight,
	}
}

// settle decides an insert into the root's tree from the path maximum pm:
// the new edge replaces the heaviest path edge if it is lighter, else the
// forest stays.
func settle(nw *congest.Network, root, peer congest.NodeID, pm uint64) (*tree.Spec, admit.Action) {
	he := nw.Node(root).EdgeTo(peer)
	if he.Composite >= pm {
		return nil, Kept
	}
	_, maxEdgeNum := nw.Layout().SplitComposite(pm)
	return swapSpec(maxEdgeNum, nw.Node(root).EdgeNum(he)), Swapped
}

// reweight admits a weight change (paper Theorem 1.2): an increase on a
// tree edge unmarks it and repairs like a deletion, with the edge staying
// available as its own (possibly best) replacement; a decrease on a
// non-tree edge repairs like an insertion. The other directions leave the
// MSF unchanged but still apply the new weight. SetRawWeight refuses an
// out-of-range weight before any mark changes or repair launches.
func reweight(r *admit.Repairer[*findmin.Machine], ev faultplan.Event, claim admit.Claim) admit.Decision {
	const op = "mst.reweight"
	nw := r.Network()
	a, b := congest.NodeID(ev.A), congest.NodeID(ev.B)
	he := nw.Node(a).EdgeTo(b)
	if he == nil {
		return admit.Skip(op, fmt.Errorf("%s: no link {%d,%d}", op, a, b))
	}
	oldRaw, wasMarked := nw.Node(a).Raw(he), he.Marked
	noOp := admit.Decision{Inline: true, Action: NoOp, Op: op}
	if ev.Raw == oldRaw {
		return noOp
	}
	increase := wasMarked && ev.Raw > oldRaw
	decrease := !wasMarked && ev.Raw < oldRaw
	if (increase && !claim.Acquire(a, 0)) || (decrease && !claim.Acquire(a, b)) {
		return admit.Decision{Deferred: true}
	}
	if err := nw.SetRawWeight(a, b, ev.Raw); err != nil {
		return admit.Skip(op, err)
	}
	switch {
	case increase:
		nw.SetMark(a, b, false)
		return r.Launch(op, claim, true, a, b, 0x5851f42d4c957f2d)
	case decrease:
		return r.Launch(op, claim, false, a, b, 0)
	}
	return noOp
}

// Path-max echo words. A node echoes pathMissing when the target is not in
// its subtree, pathAtTarget when it is the target, and otherwise the
// largest composite weight on the tree path from it down to the target.
// Composites are at least 1<<EdgeNumBits > 1, so the three never collide,
// and the heaviest edge's number is the composite's low EdgeNumBits
// (bitwidth.Layout.SplitComposite). pathMissing is the 0 word that
// admit.Structure's Probe echoes for a peer outside the tree.
const (
	pathMissing  uint64 = 0
	pathAtTarget uint64 = 1
)

// pathMaxSpec builds the Insert(u,v) broadcast-and-echo spec: does target
// lie in the root's tree, and if so what is the heaviest edge on the path
// to it? The echo is one word; UpBits still charges the paper's found
// flag, composite weight and edge number.
func pathMaxSpec(target congest.NodeID) *tree.Spec {
	return &tree.Spec{
		Down:     target,
		DownBits: 32,
		UpBits:   1 + 64 + 64,
		Local: func(node *congest.NodeState, down any, acc []uint64) {
			if node.ID == down.(congest.NodeID) {
				acc[0] = pathAtTarget
			}
		},
		Fold: func(node *congest.NodeState, down any, acc []uint64, from congest.NodeID, child []uint64) {
			if child[0] == pathMissing {
				return
			}
			// Extend the child's path by the connecting tree edge. It still
			// exists: a marked edge is deleted only under the repair's admit
			// claim. At most one child's subtree holds the target.
			acc[0] = max(acc[0], child[0], node.EdgeTo(from).Composite)
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
			d, mask := down.([2]uint64), node.EdgeNumMask()
			for i := range node.Edges {
				he := &node.Edges[i]
				if he.Composite&mask == d[0] && he.Marked {
					node.StageUnmark(he.Neighbor)
				}
				if he.Composite&mask == d[1] && !he.Marked {
					node.StageMark(he.Neighbor)
				}
			}
		},
	}
}
