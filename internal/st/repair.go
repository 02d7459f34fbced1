package st

import (
	"kkt/internal/admit"
	"kkt/internal/congest"
	"kkt/internal/faultplan"
	"kkt/internal/findany"
	"kkt/internal/tree"
)

// Action describes what an ST repair did: admit.Action, whose values a
// spanning-forest repair produces are named here.
type Action = admit.Action

const (
	// NoOp: the change did not affect the maintained forest.
	NoOp = admit.NoOp
	// Reconnected: a replacement edge was found and marked.
	Reconnected = admit.Reconnected
	// Bridge: the deleted edge was a bridge.
	Bridge = admit.Bridge
	// Added: the inserted edge joined two trees.
	Added = admit.Added
	// Failed: FindAny gave up (probability ~ n^-c for the Full variant).
	Failed = admit.Failed
)

// Report is the outcome and cost of one ST repair.
type Report = admit.Report

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
	return admit.Apply(nw, pr, forest(pr, cfg), faultplan.Event{Op: faultplan.OpDelete, A: uint32(a), B: uint32(b)})
}

// Insert processes the insertion of link {a,b}: for an unweighted
// spanning forest the edge matters only if it joins two trees, which one
// broadcast-and-echo from the smaller endpoint decides. Deterministic,
// O(|T|) messages.
func Insert(nw *congest.Network, pr *tree.Protocol, a, b congest.NodeID, cfg RepairConfig) (Report, error) {
	return admit.Apply(nw, pr, forest(pr, cfg), faultplan.Event{Op: faultplan.OpInsert, A: uint32(a), B: uint32(b)})
}

// NewStormLauncher returns the admission-queue launcher maintaining the
// spanning forest on nw/pr. Weight-change events are invalid for the
// unweighted structure and are skipped defensively (Spec validation
// rejects such plans).
func NewStormLauncher(nw *congest.Network, pr *tree.Protocol, cfg RepairConfig) *admit.Repairer[*findany.Machine] {
	return admit.NewRepairer(nw, pr, forest(pr, cfg))
}

// forest describes the maintained spanning forest to the shared repair
// machine: FindAny reconnects deletes, and the membership echo decides
// inserts.
func forest(pr *tree.Protocol, cfg RepairConfig) admit.Structure[*findany.Machine] {
	return admit.Structure[*findany.Machine]{
		DeleteOp:  "st.delete",
		InsertOp:  "st.insert",
		Seed:      cfg.Seed,
		NewSearch: findany.NewMachine,
		Arm: func(m *findany.Machine, root congest.NodeID, seed uint64) {
			m.Reset(pr, root, seed, cfg.FindAny)
		},
		Probe: containsSpec,
		Settle: func(*congest.Network, congest.NodeID, congest.NodeID, uint64) (*tree.Spec, admit.Action) {
			return nil, NoOp // same tree: a spanning forest ignores the edge
		},
	}
}

// containsSpec builds the membership broadcast-and-echo spec: is target
// in the root's tree? The echo is the OR of the subtree's membership
// bits, one word.
func containsSpec(target congest.NodeID) *tree.Spec {
	return &tree.Spec{
		Down:     target,
		DownBits: 32,
		UpBits:   1,
		Local: func(node *congest.NodeState, down any, acc []uint64) {
			if node.ID == down.(congest.NodeID) {
				acc[0] = 1
			}
		},
		Fold: func(node *congest.NodeState, down any, acc []uint64, from congest.NodeID, child []uint64) {
			acc[0] |= child[0]
		},
	}
}
