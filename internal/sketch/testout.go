package sketch

import (
	"kkt/internal/congest"
	"kkt/internal/hashing"
	"kkt/internal/tree"
)

// Lanes is the w of the paper's w-wise search (§3.1): the number of
// sub-intervals one TestOut broadcast probes in parallel. It equals the
// word size so the echo is a single word of per-lane parity bits.
const Lanes = 64

// Interval is an inclusive composite-weight interval.
type Interval struct {
	Lo, Hi uint64
}

// Empty reports whether the interval contains nothing (Lo > Hi).
func (iv Interval) Empty() bool { return iv.Lo > iv.Hi }

// Stride returns the width of each of the at-most-n equal sub-intervals
// of [iv.Lo, iv.Hi] (paper step 5: j_i = j + i*ceil((k-j)/w)). A value v
// in the interval lies in lane (v - iv.Lo) / stride — the O(1) lane
// lookup every TestOut local computation uses instead of scanning lanes.
func (iv Interval) Stride(n int) uint64 {
	if n < 1 {
		n = 1 // a degenerate lane count behaves like a single lane
	}
	span := iv.Hi - iv.Lo + 1
	stride := span / uint64(n)
	if span%uint64(n) != 0 {
		stride++
	}
	return stride
}

// NumLanes returns how many non-empty lanes the split actually produces
// (trailing lanes past Hi are dropped, matching Split).
func (iv Interval) NumLanes(n int) int {
	if iv.Empty() || n < 1 {
		return 0
	}
	stride := iv.Stride(n)
	span := iv.Hi - iv.Lo + 1
	lanes := span / stride
	if span%stride != 0 {
		lanes++
	}
	return int(lanes)
}

// Lane returns the i-th lane of the n-way split: equal stride, with the
// last lane clipped to Hi.
func (iv Interval) Lane(n, i int) Interval {
	stride := iv.Stride(n)
	lo := iv.Lo + uint64(i)*stride
	hi := lo + stride - 1
	if hi > iv.Hi || hi < lo { // clip and guard overflow
		hi = iv.Hi
	}
	return Interval{Lo: lo, Hi: hi}
}

// Split partitions [iv.Lo, iv.Hi] into at most n equal-stride
// sub-intervals. Hot paths use Stride/NumLanes/Lane arithmetic instead of
// materialising the slice; Split remains for tests and one-off callers.
func (iv Interval) Split(n int) []Interval {
	count := iv.NumLanes(n)
	if count == 0 {
		return nil
	}
	out := make([]Interval, count)
	for i := range out {
		out[i] = iv.Lane(n, i)
	}
	return out
}

// testOutDown is the broadcast payload of one TestOut: the odd hash and
// the lane intervals' base parameters. The stride is the precomputed lane
// table — computed once per broadcast at the initiator, not once per node
// — and is derived from Range/NLanes, so the message still carries only
// O(1) words.
type testOutDown struct {
	Hash   hashing.OddHash
	Range  Interval
	NLanes int
	stride uint64
}

// testOutDownBits: hash (2 words) + interval (2 words) + lane count.
const testOutDownBits = 2*64 + 2*64 + 8

// testOutLocal computes one node's TestOut contribution: for each
// incident edge in range whose odd-hash bit is set, flip the parity bit of
// the edge's lane. The lane index is stride arithmetic — no per-node lane
// slice, no per-edge lane scan.
func testOutLocal(node *congest.NodeState, downAny any, acc []uint64) {
	d := downAny.(*testOutDown)
	var word uint64
	mask := node.EdgeNumMask()
	for i := range node.Edges {
		he := &node.Edges[i]
		if he.Composite < d.Range.Lo || he.Composite > d.Range.Hi {
			continue
		}
		if d.Hash.Bit(he.Composite&mask) == 0 {
			continue
		}
		word ^= uint64(1) << uint((he.Composite-d.Range.Lo)/d.stride)
	}
	acc[0] = word
}

// TestOutRunner is a reusable TestOut broadcast-and-echo: the spec, its
// payload and the lane table are owned by the runner and refreshed in
// place per call, so repeated probes (FindMin's narrowing loop) allocate
// nothing. A runner belongs to one driver; echoes are one-word parity
// vectors, XOR-folded.
type TestOutRunner struct {
	down testOutDown
	spec tree.Spec
}

// NewTestOutRunner returns a runner ready for repeated probes.
func NewTestOutRunner() *TestOutRunner {
	t := &TestOutRunner{}
	t.spec = tree.Spec{
		Down:     &t.down,
		DownBits: testOutDownBits,
		UpBits:   Lanes,
		Local:    testOutLocal,
		// Fold nil: parity words XOR-fold.
	}
	return t
}

// Start begins one TestOut broadcast-and-echo from root over the lane
// split of rng; the session completes with the parity word (Wake.U).
// Bit i set means lane i certainly contains an edge leaving the tree
// containing root; a zero bit is wrong with probability at most 7/8 when
// the lane's cut is non-empty (the paper's TestOut(x, j, k) is the
// one-lane case). Drivers await the session through the engine.
func (t *TestOutRunner) Start(pr *tree.Protocol, root congest.NodeID, h hashing.OddHash, rng Interval, nLanes int) congest.SessionID {
	t.down = testOutDown{Hash: h, Range: rng, NLanes: nLanes, stride: rng.Stride(nLanes)}
	return pr.StartBroadcastEcho(root, &t.spec)
}
