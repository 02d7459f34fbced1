// Package findany implements the paper's FindAny and FindAny-C (§4.1):
// find *some* edge leaving the tree containing a given root, in an
// expected constant number of broadcast-and-echoes — a log n / log log n
// factor cheaper than FindMin, which is what makes the unweighted (ST)
// results cheaper than the MST ones.
//
// One attempt: broadcast a pairwise-independent hash h into [2^l]; every
// node echoes, for each level i <= l, the parity of its incident edges
// with h(edgeNum) < 2^i. Tree-internal edges cancel, so level i's
// aggregate is the parity of cut edges hashing below 2^i. By Lemma 4,
// with probability >= 1/16 some level isolates exactly one cut edge; the
// XOR of edge numbers at the smallest firing level is then that edge's
// number, which a final counting broadcast verifies (Sum of in-tree
// endpoints == 1).
package findany

import (
	"fmt"

	"kkt/internal/congest"
	"kkt/internal/hashing"
	"kkt/internal/tree"
)

// Variant selects between the expected-cost and single-shot algorithms.
type Variant int

const (
	// Full is FindAny: repeat attempts until one verifies, up to the
	// 16·ln(1/eps) high-probability budget.
	Full Variant = iota + 1
	// Capped is FindAny-C: a single attempt after the HP-TestOut gate;
	// succeeds with probability >= 1/16 - n^-c, otherwise returns
	// EmptyResult ("no answer", never a wrong edge).
	Capped
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Full:
		return "FindAny"
	case Capped:
		return "FindAny-C"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config tunes a run.
type Config struct {
	// Variant selects FindAny or FindAny-C.
	Variant Variant
	// C is the error exponent: failure probability n^-C for Full.
	C int
}

// Defaults returns the paper-faithful configuration.
func Defaults(v Variant) Config { return Config{Variant: v, C: 2} }

// Stats counts the work one run performed.
type Stats struct {
	Attempts int // isolation attempts (3 broadcast-and-echoes each)
	HPTests  int
}

// Result is the outcome of FindAny.
type Result struct {
	// Reason is how the search ended: a cut edge found and verified, an
	// empty cut certified (w.h.p.) by HP-TestOut, or the attempts spent.
	Reason  tree.Outcome
	EdgeNum uint64
	A, B    congest.NodeID
	Stats   Stats
}

// levelVecDown is the broadcast payload of the level-parity echo.
type levelVecDown struct {
	Hash hashing.PairwiseHash
	L    int
}

// xorDown asks for the XOR of edge numbers hashing below 2^Min.
type xorDown struct {
	Hash hashing.PairwiseHash
	Min  int
}

// countDown asks how many in-tree endpoints carry the candidate edge.
type countDown struct {
	EdgeNum uint64
}

// probes bundles the three reusable broadcast-and-echo specs one FindAny
// run cycles through. All three echo one word; payloads refresh in place
// per attempt, so the attempt loop allocates nothing.
type probes struct {
	levelDown levelVecDown
	levelSpec tree.Spec
	xorDown   xorDown
	xorSpec   tree.Spec
	countDown countDown
	countSpec tree.Spec
}

func newProbes() *probes {
	pb := &probes{}
	// echo bit i (0 <= i <= l) is the XOR over incident edges of
	// [h(edgeNum) < 2^i].
	pb.levelSpec = tree.Spec{Down: &pb.levelDown, Local: levelVecLocal}
	// echo is the XOR of incident edge numbers with h(e) < 2^min.
	pb.xorSpec = tree.Spec{Down: &pb.xorDown, UpBits: 64, Local: xorLocal}
	// echo sums, over in-tree nodes, whether the node carries an incident
	// edge with the candidate number (capped at 3 — only ==1 matters).
	pb.countSpec = tree.Spec{Down: &pb.countDown, DownBits: 64, UpBits: 2, Local: countLocal, Fold: countFold}
	return pb
}

func levelVecLocal(node *congest.NodeState, downAny any, acc []uint64) {
	d := downAny.(*levelVecDown)
	var vec uint64
	mask := node.EdgeNumMask()
	for i := range node.Edges {
		level := d.Hash.PrefixLevel(node.Edges[i].Composite & mask)
		// edge contributes to every bit at or above its level:
		// [h(e) < 2^i] holds for all i >= level.
		vec ^= ^uint64(0) << uint(level)
	}
	acc[0] = vec & (uint64(1)<<uint(d.L+1) - 1)
}

func xorLocal(node *congest.NodeState, downAny any, acc []uint64) {
	d := downAny.(*xorDown)
	bound := uint64(1) << uint(d.Min)
	var x uint64
	mask := node.EdgeNumMask()
	for i := range node.Edges {
		if en := node.Edges[i].Composite & mask; d.Hash.Hash(en) < bound {
			x ^= en
		}
	}
	acc[0] = x
}

func countLocal(node *congest.NodeState, downAny any, acc []uint64) {
	d := downAny.(*countDown)
	mask := node.EdgeNumMask()
	for i := range node.Edges {
		if node.Edges[i].Composite&mask == d.EdgeNum {
			acc[0] = 1
			return
		}
	}
}

// countFold sums child counters with the same saturation the old
// slice-fold applied after summing: values stay in [0,3], and min(3, .)
// per fold equals one cap at the end for non-negative addends.
func countFold(_ *congest.NodeState, _ any, acc []uint64, _ congest.NodeID, child []uint64) {
	acc[0] = min(acc[0]+child[0], 3)
}
