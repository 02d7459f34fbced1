package st

import (
	"fmt"

	"kkt/internal/admit"
	"kkt/internal/congest"
	"kkt/internal/findany"
	"kkt/internal/tree"
)

// Action describes what an ST repair did.
type Action int

const (
	// NoOp: the change did not affect the maintained forest.
	NoOp Action = iota + 1
	// Reconnected: a replacement edge was found and marked.
	Reconnected
	// Bridge: the deleted edge was a bridge.
	Bridge
	// Added: the inserted edge joined two trees.
	Added
	// Failed: FindAny gave up (probability ~ n^-c for the Full variant).
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
	case Failed:
		return "failed"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Report is the outcome and cost of one ST repair.
type Report struct {
	Action Action
	admit.Cost
}

// RepairConfig tunes ST repair.
type RepairConfig struct {
	Seed    uint64
	FindAny findany.Config
}

// DefaultRepair returns the paper-faithful configuration (FindAny, i.e.
// expected O(n) messages per delete).
func DefaultRepair(seed uint64) RepairConfig {
	return RepairConfig{Seed: seed, FindAny: findany.Defaults(findany.Full)}
}

// Delete processes the deletion of link {a,b} for a maintained spanning
// forest (paper §4.3): if it was a tree edge, the smaller-ID endpoint
// finds any replacement with FindAny. Expected O(n) messages.
func Delete(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, cfg RepairConfig) (Report, error) {
	existed, wasMarked := nw.DeleteLink(a, b)
	if !existed {
		return Report{}, fmt.Errorf("st: delete of non-existent link {%d,%d}", a, b)
	}
	if !wasMarked {
		admit.Inline(nw, "st.delete", NoOp.String())
		return Report{Action: NoOp}, nil
	}
	return runRepair(nw, pr, "st.delete", true, a, b, cfg.Seed^uint64(a)<<32^uint64(b), cfg.FindAny)
}

// Insert processes the insertion of link {a,b}: for an unweighted
// spanning forest the edge matters only if it joins two trees, which one
// broadcast-and-echo from the smaller endpoint decides. Deterministic,
// O(|T|) messages.
func Insert(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, cfg RepairConfig) (Report, error) {
	if err := nw.InsertLink(a, b, 1); err != nil {
		return Report{}, err
	}
	return runRepair(nw, pr, "st.insert", false, a, b, 0, cfg.FindAny)
}

// runRepair runs one repair machine on its own, initiated by the
// smaller-ID endpoint (the paper's initiator) with the other as peer.
func runRepair(nw *congest.Network, pr *tree.Protocol, op string, deleteStyle bool, a, b congest.NodeID, seed uint64, cfg findany.Config) (Report, error) {
	if b < a {
		a, b = b, a
	}
	sr := &stormRepair{nw: nw, pr: pr, fa: findany.NewMachine()}
	sr.reset(deleteStyle, a, b, seed, cfg)
	c, err := admit.RunOne(nw, op, sr)
	if err != nil {
		return Report{}, err
	}
	return Report{Action: sr.action, Cost: c}, nil
}

// containsSpec builds the membership broadcast-and-echo spec: is target
// in the root's tree?
func containsSpec(target congest.NodeID) *tree.Spec {
	return &tree.Spec{
		Down:     target,
		DownBits: 32,
		UpBits:   1,
		Local: func(node *congest.NodeState, down any) any {
			return node.ID == down.(congest.NodeID)
		},
		Combine: func(node *congest.NodeState, down, local any, children []tree.ChildEcho) any {
			found := local.(bool)
			for _, c := range children {
				found = found || c.Value.(bool)
			}
			return found
		},
	}
}
