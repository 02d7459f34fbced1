package mst

import (
	"fmt"

	"kkt/internal/congest"
	"kkt/internal/findmin"
	"kkt/internal/rng"
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
	Action   Action
	Messages uint64
	Bits     uint64
	Time     int64
	// Edge is the replacement/marked edge when Action is Reconnected,
	// Added or Swapped.
	Edge [2]congest.NodeID
	// Stats carries the inner FindMin statistics for delete repairs.
	Stats findmin.Stats
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

// obsRepairStart/obsRepairDone bracket a repair operation for the attached
// observer (no-ops when none): the round-latency and cost reported are the
// same deltas the returned Report carries.
func obsRepairStart(nw *congest.Network, op string) {
	if o := nw.Obs(); o != nil {
		o.RepairStart(op, nw.Now())
	}
}

func obsRepairDone(nw *congest.Network, op string, rep Report) {
	if o := nw.Obs(); o != nil {
		o.RepairDone(op, rep.Action.String(), nw.Now(), rep.Time, rep.Messages, rep.Bits)
	}
}

// Delete processes the deletion of link {a,b} (paper §3.2 Delete(u,v)):
// the link is removed from the topology; if it was a tree edge, the
// smaller-ID endpoint initiates FindMin over its remaining tree and marks
// the replacement, if any. The network must be idle (impromptu repair is
// between-updates state-free).
func Delete(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, cfg RepairConfig) (Report, error) {
	before := nw.Counters()
	beforeTime := nw.Now()
	existed, wasMarked := nw.DeleteLink(a, b)
	if !existed {
		return Report{}, fmt.Errorf("mst: delete of non-existent link {%d,%d}", a, b)
	}
	obsRepairStart(nw, "mst.delete")
	if !wasMarked {
		rep := Report{Action: NoOp}
		obsRepairDone(nw, "mst.delete", rep)
		return rep, nil
	}
	u := a
	if b < u {
		u = b
	}
	var rep Report
	nw.Spawn(fmt.Sprintf("delete-%d-%d", a, b), func(p *congest.Proc) error {
		r := rng.New(cfg.Seed ^ uint64(a)<<32 ^ uint64(b))
		res, err := findmin.Run(p, pr, u, r, cfg.FindMin)
		if err != nil {
			return err
		}
		rep.Stats = res.Stats
		switch res.Reason {
		case findmin.FoundEdge:
			if _, err := pr.BroadcastEcho(p, u, tree.AddEdgeSpec(res.EdgeNum)); err != nil {
				return err
			}
			p.AwaitQuiescence()
			nw.ApplyStaged()
			rep.Action = Reconnected
			rep.Edge = [2]congest.NodeID{res.A, res.B}
		case findmin.EmptyCut:
			rep.Action = Bridge
		case findmin.GaveUp:
			rep.Action = Failed
		}
		return nil
	})
	if err := nw.Run(); err != nil {
		return rep, err
	}
	c := nw.CountersSince(before)
	rep.Messages = c.Messages
	rep.Bits = c.Bits
	rep.Time = nw.Now() - beforeTime
	obsRepairDone(nw, "mst.delete", rep)
	return rep, nil
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
	return settleUnmarked(nw, pr, a, b, "mst.insert")
}

// settleUnmarked restores the MSF invariant given that the (existing,
// unmarked) link {a,b} may now belong in the forest. op labels the
// enclosing operation for observers.
func settleUnmarked(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, op string) (Report, error) {
	before := nw.Counters()
	beforeTime := nw.Now()
	obsRepairStart(nw, op)
	u, v := a, b
	if v < u {
		u, v = v, u
	}
	newComposite := nw.Node(u).EdgeTo(v).Composite
	var rep Report
	nw.Spawn(fmt.Sprintf("insert-%d-%d", a, b), func(p *congest.Proc) error {
		pm, err := runPathMax(p, pr, u, v)
		if err != nil {
			return err
		}
		switch {
		case !pm.Found:
			// v is in a different tree: the new edge joins two trees.
			nw.Node(u).StageMark(v)
			pr.SendMarkX(u, v)
			p.AwaitQuiescence()
			nw.ApplyStaged()
			rep.Action = Added
			rep.Edge = [2]congest.NodeID{u, v}
		case newComposite < pm.MaxComposite:
			// Swap: broadcast "remove heaviest path edge, add {u,v}".
			spec := swapSpec(pm.MaxEdgeNum, nw.Node(u).EdgeTo(v).EdgeNum)
			if _, err := pr.BroadcastEcho(p, u, spec); err != nil {
				return err
			}
			p.AwaitQuiescence()
			nw.ApplyStaged()
			rep.Action = Swapped
			rep.Edge = [2]congest.NodeID{u, v}
		default:
			rep.Action = Kept
		}
		return nil
	})
	if err := nw.Run(); err != nil {
		return rep, err
	}
	c := nw.CountersSince(before)
	rep.Messages = c.Messages
	rep.Bits = c.Bits
	rep.Time = nw.Now() - beforeTime
	obsRepairDone(nw, op, rep)
	return rep, nil
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
		return Report{Action: NoOp}, nil
	}
	if err := nw.SetRawWeight(a, b, newRaw); err != nil {
		return Report{}, err
	}
	switch {
	case wasMarked && newRaw > oldRaw:
		// Increase on a tree edge: both endpoints observe the change and
		// unmark; then repair exactly like a deletion, except the edge
		// itself stays available as its own (possibly best) replacement.
		nw.Node(a).SetMark(b, false)
		nw.Node(b).SetMark(a, false)
		rep, err := deleteStyleRepair(nw, pr, a, b, cfg)
		return rep, err
	case !wasMarked && newRaw < oldRaw:
		// Decrease on a non-tree edge: like an insertion.
		return settleUnmarked(nw, pr, a, b, "mst.reweight")
	default:
		// Decrease on a tree edge / increase on a non-tree edge: the MSF
		// is unchanged.
		rep := Report{Action: NoOp}
		obsRepairStart(nw, "mst.reweight")
		obsRepairDone(nw, "mst.reweight", rep)
		return rep, nil
	}
}

// deleteStyleRepair runs the FindMin reconnection step of Delete without
// removing the link.
func deleteStyleRepair(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, cfg RepairConfig) (Report, error) {
	before := nw.Counters()
	beforeTime := nw.Now()
	obsRepairStart(nw, "mst.reweight")
	u := a
	if b < u {
		u = b
	}
	var rep Report
	nw.Spawn(fmt.Sprintf("reweight-%d-%d", a, b), func(p *congest.Proc) error {
		r := rng.New(cfg.Seed ^ uint64(a)<<32 ^ uint64(b) ^ 0x5851f42d4c957f2d)
		res, err := findmin.Run(p, pr, u, r, cfg.FindMin)
		if err != nil {
			return err
		}
		rep.Stats = res.Stats
		switch res.Reason {
		case findmin.FoundEdge:
			if _, err := pr.BroadcastEcho(p, u, tree.AddEdgeSpec(res.EdgeNum)); err != nil {
				return err
			}
			p.AwaitQuiescence()
			nw.ApplyStaged()
			rep.Action = Reconnected
			rep.Edge = [2]congest.NodeID{res.A, res.B}
		case findmin.EmptyCut:
			rep.Action = Bridge
		case findmin.GaveUp:
			rep.Action = Failed
		}
		return nil
	})
	if err := nw.Run(); err != nil {
		return rep, err
	}
	c := nw.CountersSince(before)
	rep.Messages = c.Messages
	rep.Bits = c.Bits
	rep.Time = nw.Now() - beforeTime
	obsRepairDone(nw, "mst.reweight", rep)
	return rep, nil
}

// pathMaxResult is the aggregate of the Insert broadcast-and-echo.
type pathMaxResult struct {
	// Found: the target node is in the tree.
	Found bool
	// MaxComposite / MaxEdgeNum identify the heaviest edge on the tree
	// path from the root to the target (valid when Found).
	MaxComposite uint64
	MaxEdgeNum   uint64
}

// runPathMax performs the Insert(u,v) broadcast-and-echo: does v lie in
// u's tree, and if so what is the heaviest edge on the path u..v?
func runPathMax(p *congest.Proc, pr *tree.Protocol, root, target congest.NodeID) (pathMaxResult, error) {
	v, err := pr.BroadcastEcho(p, root, pathMaxSpec(target))
	if err != nil {
		return pathMaxResult{}, err
	}
	return v.(pathMaxResult), nil
}

// pathMaxSpec builds the Insert(u,v) broadcast-and-echo spec; shared by the
// blocking driver above and the wave-mode storm machine.
func pathMaxSpec(target congest.NodeID) *tree.Spec {
	return &tree.Spec{
		Down:     target,
		DownBits: 32,
		UpBits:   1 + 64 + 64,
		Local: func(node *congest.NodeState, down any) any {
			return pathMaxResult{Found: node.ID == down.(congest.NodeID)}
		},
		Combine: func(node *congest.NodeState, down, local any, children []tree.ChildEcho) any {
			res := local.(pathMaxResult)
			for _, c := range children {
				cr := c.Value.(pathMaxResult)
				if !cr.Found {
					continue
				}
				// extend the child's path by the connecting tree edge. It
				// still exists: a marked edge is deleted only under the
				// repair's admit claim.
				res.Found = true
				res.MaxComposite, res.MaxEdgeNum = cr.MaxComposite, cr.MaxEdgeNum
				if he := node.EdgeTo(c.From); he.Composite > res.MaxComposite {
					res.MaxComposite, res.MaxEdgeNum = he.Composite, he.EdgeNum
				}
			}
			return res
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
