// Package sketch implements the paper's cut-detection primitives as
// broadcast-and-echo aggregations:
//
//   - Survey: the bookkeeping broadcast-and-echo FindMin/FindAny start
//     with (paper FindMin step 2, FindAny step 3a precondition): tree
//     size, degree sums, maxWt(T), maxEdgeNum(T).
//
//   - TestOut (§2.1): does any edge with weight in [j,k] leave the tree?
//     One-sided, succeeds with probability >= 1/8 via an odd hash of edge
//     numbers; w parallel sub-intervals share one broadcast and return one
//     echo bit each (§3.1).
//
//   - HP-TestOut (§2.2): the same question w.h.p., via Schwartz-Zippel
//     multiset equality of the up-edge and down-edge sets over Z_p.
//
// Each primitive is a runner that owns its spec, its broadcast payload
// and the words the root's echo lands in, refreshed in place per call, so
// a machine holding one probes without allocating. Every echo is a few
// words (tree.Spec): a node's Local callback reads only its own state,
// and Fold merges each child's echo into the node's words as it arrives.
package sketch

import (
	"kkt/internal/congest"
	"kkt/internal/tree"
)

// Survey is the aggregate a survey broadcast-and-echo returns.
type Survey struct {
	// Size is |T|, the number of nodes in the tree.
	Size int
	// DegreeSum is the total number of edge endpoints incident to T
	// (every incident edge counted at each in-tree endpoint, tree edges
	// included) — the B of HP-TestOut's error parameter and the bound
	// FindAny's hash range must exceed.
	DegreeSum int
	// UnmarkedDegreeSum counts only non-tree incident edge endpoints —
	// the candidate replacement edges.
	UnmarkedDegreeSum int
	// MaxComposite is the maximum composite weight over unmarked
	// incident edges (0 when there are none): the paper's maxWt(T)
	// restricted to candidate edges.
	MaxComposite uint64
	// MaxEdgeNum is the maximum edge number over all incident edges:
	// the paper's maxEdgeNum(T).
	MaxEdgeNum uint64
}

// The survey echo's words, in order.
const (
	svSize = iota
	svDegreeSum
	svUnmarkedDegreeSum
	svMaxComposite
	svMaxEdgeNum
	surveyWidth
)

// surveyBits: echo carries five words.
const surveyBits = surveyWidth * 64

func surveyLocal(node *congest.NodeState, _ any, acc []uint64) {
	acc[svSize] = 1
	acc[svDegreeSum] = uint64(node.Degree())
	mask := node.EdgeNumMask()
	for i := range node.Edges {
		he := &node.Edges[i]
		acc[svMaxEdgeNum] = max(acc[svMaxEdgeNum], he.Composite&mask)
		if !he.Marked {
			acc[svUnmarkedDegreeSum]++
			acc[svMaxComposite] = max(acc[svMaxComposite], he.Composite)
		}
	}
}

func surveyFold(_ *congest.NodeState, _ any, acc []uint64, _ congest.NodeID, child []uint64) {
	acc[svSize] += child[svSize]
	acc[svDegreeSum] += child[svDegreeSum]
	acc[svUnmarkedDegreeSum] += child[svUnmarkedDegreeSum]
	acc[svMaxComposite] = max(acc[svMaxComposite], child[svMaxComposite])
	acc[svMaxEdgeNum] = max(acc[svMaxEdgeNum], child[svMaxEdgeNum])
}

// SurveyRunner is a reusable survey broadcast-and-echo: the runner owns
// its spec and the words the root's echo lands in, so a machine that
// holds one surveys without allocating.
type SurveyRunner struct {
	out  [surveyWidth]uint64
	spec tree.Spec
}

// NewSurveyRunner returns a runner ready for repeated surveys.
func NewSurveyRunner() *SurveyRunner {
	s := &SurveyRunner{}
	s.spec = tree.Spec{
		DownBits: 8,
		UpBits:   surveyBits,
		Width:    surveyWidth,
		Local:    surveyLocal,
		Fold:     surveyFold,
		Out:      s.out[:],
	}
	return s
}

// Start begins the survey broadcast-and-echo from root; read the
// aggregate with Result once the session completes.
func (s *SurveyRunner) Start(pr *tree.Protocol, root congest.NodeID) congest.SessionID {
	return pr.StartBroadcastEcho(root, &s.spec)
}

// Result returns the aggregate of the last completed survey.
func (s *SurveyRunner) Result() Survey {
	return Survey{
		Size:              int(s.out[svSize]),
		DegreeSum:         int(s.out[svDegreeSum]),
		UnmarkedDegreeSum: int(s.out[svUnmarkedDegreeSum]),
		MaxComposite:      s.out[svMaxComposite],
		MaxEdgeNum:        s.out[svMaxEdgeNum],
	}
}
