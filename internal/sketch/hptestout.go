package sketch

import (
	"math"
	"sync"

	"kkt/internal/congest"
	"kkt/internal/modring"
	"kkt/internal/rng"
	"kkt/internal/tree"
)

// MaxReps bounds the number of parallel Schwartz-Zippel repetitions so
// that one echo (2 Z_p values per repetition) stays within the message
// budget. With p = 2^61-1 and degree sums < 2^40, three repetitions push
// the error below 2^-60 — far below any n^-c the simulator can exercise.
const MaxReps = 3

// hpDown is the broadcast payload: the evaluation points and the weight
// interval under test. The alphas live inline (reps <= MaxReps), so the
// payload is a single pointer with no per-call slice.
type hpDown struct {
	Alphas [MaxReps]uint64
	Reps   int
	Range  Interval
}

// hpPair is one repetition's pair of polynomial evaluations.
type hpPair struct {
	Up, Down uint64
}

// hpEval is one node's echo value: the per-repetition evaluation pairs,
// inline. Evals are recycled through a pool — parents return their
// children's evals as they fold them — so a broadcast-and-echo reuses a
// handful of evals instead of allocating one per node.
type hpEval struct {
	pairs [MaxReps]hpPair
	reps  int
}

var hpEvalPool = sync.Pool{New: func() any { return new(hpEval) }}

// NumReps returns how many parallel repetitions are needed to push the
// one-sided error below eps given that at most degreeBound edge endpoints
// are incident to the tree (the polynomial degree bound B of §2.2).
func NumReps(eps float64, degreeBound int) int {
	if eps <= 0 || degreeBound < 1 {
		return 1
	}
	ring := modring.Default()
	perRep := float64(degreeBound) / float64(ring.P())
	if perRep >= 1 {
		return MaxReps
	}
	r := int(math.Ceil(math.Log(eps) / math.Log(perRep)))
	if r < 1 {
		r = 1
	}
	if r > MaxReps {
		r = MaxReps
	}
	return r
}

// DrawAlphasInto fills dst with evaluation points from Z_p.
func DrawAlphasInto(r *rng.RNG, dst []uint64) {
	ring := modring.Default()
	for i := range dst {
		dst[i] = r.Uint64n(ring.P())
	}
}

// DrawAlphas draws reps evaluation points from Z_p.
func DrawAlphas(r *rng.RNG, reps int) []uint64 {
	out := make([]uint64, reps)
	DrawAlphasInto(r, out)
	return out
}

// hpLocal evaluates P(E-up(y))(alpha) and P(E-down(y))(alpha) over the
// node's incident edges with composite weight in range, where E-up(y)
// holds the edges on which y is the smaller endpoint and E-down(y) those
// on which it is the larger.
func hpLocal(node *congest.NodeState, downAny any) any {
	d := downAny.(*hpDown)
	ring := modring.Default()
	ev := hpEvalPool.Get().(*hpEval)
	ev.reps = d.Reps
	for i := 0; i < d.Reps; i++ {
		ev.pairs[i] = hpPair{Up: 1, Down: 1}
	}
	mask := node.EdgeNumMask()
	for ei := range node.Edges {
		he := &node.Edges[ei]
		if he.Composite < d.Range.Lo || he.Composite > d.Range.Hi {
			continue
		}
		root := ring.Reduce(he.Composite & mask)
		isUp := node.ID < he.Neighbor
		for i := 0; i < d.Reps; i++ {
			factor := ring.Sub(ring.Reduce(d.Alphas[i]), root)
			if isUp {
				ev.pairs[i].Up = ring.Mul(ev.pairs[i].Up, factor)
			} else {
				ev.pairs[i].Down = ring.Mul(ev.pairs[i].Down, factor)
			}
		}
	}
	return ev
}

// hpCombine multiplies children's products into the node's own and
// recycles the children's evals.
func hpCombine(node *congest.NodeState, downAny, local any, children []tree.ChildEcho) any {
	ev := local.(*hpEval)
	ring := modring.Default()
	for _, c := range children {
		cev := c.Value.(*hpEval)
		for i := 0; i < ev.reps; i++ {
			ev.pairs[i].Up = ring.Mul(ev.pairs[i].Up, cev.pairs[i].Up)
			ev.pairs[i].Down = ring.Mul(ev.pairs[i].Down, cev.pairs[i].Down)
		}
		hpEvalPool.Put(cev)
	}
	return ev
}

// HPRunner is a reusable HP-TestOut broadcast-and-echo (§2.2): multiset
// equality of the up-edge and down-edge sets over Z_p via Schwartz-Zippel.
// Products are multiplied up the tree; at the root the two multiset
// fingerprints agree for every alpha iff (w.h.p.) no edge leaves the
// tree: every tree-internal edge contributes the same factor to both
// sides (once from each endpoint), while a cut edge contributes to exactly
// one side. The spec and payload refresh in place per call.
type HPRunner struct {
	down hpDown
	spec tree.Spec
}

// NewHPRunner returns a runner ready for repeated HP tests.
func NewHPRunner() *HPRunner {
	h := &HPRunner{}
	h.spec = tree.Spec{
		Down:    &h.down,
		Local:   hpLocal,
		Combine: hpCombine,
	}
	return h
}

// Start begins HP-TestOut(root, rng) with the given evaluation points; the
// session completes with a pooled *hpEval to be consumed with ConsumeHP,
// which reports whether an edge with composite weight in rng leaves the
// tree containing root. A false answer is wrong with probability at most
// (B/p)^len(alphas); a true answer is always correct.
func (h *HPRunner) Start(pr *tree.Protocol, root congest.NodeID, alphas []uint64, rng Interval) congest.SessionID {
	if len(alphas) == 0 || len(alphas) > MaxReps {
		panic("sketch: HP-TestOut needs 1..MaxReps alphas")
	}
	ring := modring.Default()
	reps := copy(h.down.Alphas[:], alphas)
	h.down.Reps = reps
	h.down.Range = rng
	h.spec.DownBits = reps*ring.Bits() + 2*64 + 8
	h.spec.UpBits = reps * 2 * ring.Bits()
	return pr.StartBroadcastEcho(root, &h.spec)
}

// ConsumeHP folds a completed HP-TestOut session's value into the verdict
// — does an edge in range leave the tree? — and recycles the pooled eval.
func ConsumeHP(v any) bool {
	ev := v.(*hpEval)
	leaving := false
	for i := 0; i < ev.reps; i++ {
		if ev.pairs[i].Up != ev.pairs[i].Down {
			leaving = true
			break
		}
	}
	hpEvalPool.Put(ev)
	return leaving
}
