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
// All functions run on the marked tree containing the given root and touch
// only node-local state inside their Local/Combine callbacks.
package sketch

import (
	"sync"

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

// surveyBits: echo carries five words.
const surveyBits = 5 * 64

// surveyPool recycles echo values: parents return their children's
// surveys as they fold them, so one broadcast-and-echo circulates a
// handful of *Survey instead of boxing one per node.
var surveyPool = sync.Pool{New: func() any { return new(Survey) }}

func surveyLocal(node *congest.NodeState, down any) any {
	s := surveyPool.Get().(*Survey)
	*s = Survey{Size: 1, DegreeSum: node.Degree()}
	mask := node.EdgeNumMask()
	for i := range node.Edges {
		he := &node.Edges[i]
		if en := he.Composite & mask; en > s.MaxEdgeNum {
			s.MaxEdgeNum = en
		}
		if !he.Marked {
			s.UnmarkedDegreeSum++
			if he.Composite > s.MaxComposite {
				s.MaxComposite = he.Composite
			}
		}
	}
	return s
}

func surveyCombine(node *congest.NodeState, down, local any, children []tree.ChildEcho) any {
	s := local.(*Survey)
	for _, c := range children {
		cs := c.Value.(*Survey)
		s.Size += cs.Size
		s.DegreeSum += cs.DegreeSum
		s.UnmarkedDegreeSum += cs.UnmarkedDegreeSum
		if cs.MaxComposite > s.MaxComposite {
			s.MaxComposite = cs.MaxComposite
		}
		if cs.MaxEdgeNum > s.MaxEdgeNum {
			s.MaxEdgeNum = cs.MaxEdgeNum
		}
		surveyPool.Put(cs)
	}
	return s
}

// surveySpec is the shared, stateless broadcast-and-echo spec computing
// Survey; echo values are pooled *Survey.
var surveySpec = tree.Spec{
	DownBits: 8,
	UpBits:   surveyBits,
	Local:    surveyLocal,
	Combine:  surveyCombine,
}

// StartSurvey begins the survey broadcast-and-echo from root; the session
// completes with a pooled *Survey to be consumed with ConsumeSurvey.
func StartSurvey(pr *tree.Protocol, root congest.NodeID) congest.SessionID {
	return pr.StartBroadcastEcho(root, &surveySpec)
}

// ConsumeSurvey copies the aggregate out of a completed survey session's
// value and recycles the pooled carrier.
func ConsumeSurvey(v any) Survey {
	sp := v.(*Survey)
	s := *sp
	surveyPool.Put(sp)
	return s
}
