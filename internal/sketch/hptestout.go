package sketch

import (
	"math"

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
// on which it is the larger. Repetition i's products are echo words 2i
// (up) and 2i+1 (down).
func hpLocal(node *congest.NodeState, downAny any, acc []uint64) {
	d := downAny.(*hpDown)
	ring := modring.Default()
	for i := range acc {
		acc[i] = 1
	}
	mask := node.EdgeNumMask()
	for ei := range node.Edges {
		he := &node.Edges[ei]
		if he.Composite < d.Range.Lo || he.Composite > d.Range.Hi {
			continue
		}
		root := ring.Reduce(he.Composite & mask)
		side := 1
		if node.ID < he.Neighbor {
			side = 0
		}
		for i := 0; i < d.Reps; i++ {
			factor := ring.Sub(ring.Reduce(d.Alphas[i]), root)
			acc[2*i+side] = ring.Mul(acc[2*i+side], factor)
		}
	}
}

// hpFold multiplies a child's products into the node's own.
func hpFold(_ *congest.NodeState, _ any, acc []uint64, _ congest.NodeID, child []uint64) {
	ring := modring.Default()
	for i := range acc {
		acc[i] = ring.Mul(acc[i], child[i])
	}
}

// HPRunner is a reusable HP-TestOut broadcast-and-echo (§2.2): multiset
// equality of the up-edge and down-edge sets over Z_p via Schwartz-Zippel.
// Products are multiplied up the tree; at the root the two multiset
// fingerprints agree for every alpha iff (w.h.p.) no edge leaves the
// tree: every tree-internal edge contributes the same factor to both
// sides (once from each endpoint), while a cut edge contributes to exactly
// one side. The spec, payload and result words refresh in place per call.
type HPRunner struct {
	down hpDown
	out  [2 * MaxReps]uint64
	spec tree.Spec
}

// NewHPRunner returns a runner ready for repeated HP tests.
func NewHPRunner() *HPRunner {
	h := &HPRunner{}
	h.spec = tree.Spec{
		Down:  &h.down,
		Local: hpLocal,
		Fold:  hpFold,
		Out:   h.out[:],
	}
	return h
}

// Start begins HP-TestOut(root, rng) with the given evaluation points;
// once the session completes, Leaving reports whether an edge with
// composite weight in rng leaves the tree containing root. A false answer
// is wrong with probability at most (B/p)^len(alphas); a true answer is
// always correct.
func (h *HPRunner) Start(pr *tree.Protocol, root congest.NodeID, alphas []uint64, rng Interval) congest.SessionID {
	if len(alphas) == 0 || len(alphas) > MaxReps {
		panic("sketch: HP-TestOut needs 1..MaxReps alphas")
	}
	ring := modring.Default()
	reps := copy(h.down.Alphas[:], alphas)
	h.down.Reps = reps
	h.down.Range = rng
	h.spec.Width = 2 * reps
	h.spec.DownBits = reps*ring.Bits() + 2*64 + 8
	h.spec.UpBits = reps * 2 * ring.Bits()
	return pr.StartBroadcastEcho(root, &h.spec)
}

// Leaving is the verdict of the last completed HP-TestOut: does an edge
// in range leave the tree?
func (h *HPRunner) Leaving() bool {
	for i := 0; i < h.down.Reps; i++ {
		if h.out[2*i] != h.out[2*i+1] {
			return true
		}
	}
	return false
}
