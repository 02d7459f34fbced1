// Package findmin implements the paper's FindMin and FindMin-C (§3.1):
// find the minimum-weight edge leaving the tree containing a given root,
// by w-ary search over the composite-weight range. Each iteration is one
// TestOut broadcast-and-echo probing w sub-intervals in parallel (the
// echo is one w-bit word), plus two HP-TestOut verifications when a lane
// fires. Expected O(log n / log log n) broadcast-and-echoes; FindMin-C
// caps the iteration count at twice the expectation, trading a constant
// failure probability for a worst-case bound (Lemma 2).
package findmin

import (
	"fmt"
	"math"

	"kkt/internal/congest"
	"kkt/internal/sketch"
	"kkt/internal/tree"
)

// q is the paper's lower bound on TestOut's success probability (the odd
// hash family is 1/8-odd).
const q = 1.0 / 8

// Variant selects between the expected-cost and capped algorithms.
type Variant int

const (
	// Full is FindMin: iterates until the search terminates or the
	// high-probability budget (c/q)(lg n + lg maxWt / lg w) is exhausted.
	Full Variant = iota + 1
	// Capped is FindMin-C: at most (2c/q) lg maxWt / lg w iterations —
	// worst-case cost matching FindMin's expected cost, succeeding with
	// constant probability (>= 2/3 - n^-c).
	Capped
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case Full:
		return "FindMin"
	case Capped:
		return "FindMin-C"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Config tunes a run. The zero value is not valid; use Defaults.
type Config struct {
	// Variant selects FindMin or FindMin-C.
	Variant Variant
	// C is the error exponent: failure probability n^-C.
	C int
	// Lanes is the w of the w-ary search; the paper uses the word size
	// (64). Smaller values (e.g. 2 = binary search) are ablations.
	Lanes int
	// VerifyNarrowing controls the HP-TestOut checks before narrowing.
	// Disabling it is an ablation that shows why unverified narrowing
	// breaks: a missed lighter lane below the fired lane is never
	// recovered.
	VerifyNarrowing bool
}

// Defaults returns the paper-faithful configuration.
func Defaults(v Variant) Config {
	return Config{Variant: v, C: 2, Lanes: sketch.Lanes, VerifyNarrowing: true}
}

// Stats counts the work one run performed.
type Stats struct {
	Iterations int // TestOut broadcast-and-echoes
	HPTests    int // HP-TestOut broadcast-and-echoes
	Narrowings int // successful range reductions
}

// Result is the outcome of FindMin.
type Result struct {
	// Reason is how the search ended: the minimum cut edge identified,
	// an empty cut certified (w.h.p.) by HP-TestOut, or the iteration
	// budget spent (FindMin-C's constant-probability failure mode, "no
	// answer", never a wrong edge beyond HP-TestOut's n^-c).
	Reason tree.Outcome
	// Composite is the unique composite weight of the found edge
	// (valid when Reason == tree.FoundEdge).
	Composite uint64
	// EdgeNum is the found edge's number; A, B its endpoints (A < B).
	EdgeNum uint64
	A, B    congest.NodeID
	Stats   Stats
}

// iterationBudget computes the Count bound of FindMin step 8.
func iterationBudget(cfg Config, n, maxWt float64) int {
	lgMaxWt := math.Log2(maxWt + 1)
	lgLanes := math.Log2(float64(cfg.Lanes))
	c := float64(cfg.C)
	var budget float64
	if cfg.Variant == Capped {
		budget = (2 * c / q) * lgMaxWt / lgLanes
	} else {
		budget = (c/q)*math.Log2(n) + (c/q)*lgMaxWt/lgLanes
	}
	b := int(math.Ceil(budget))
	if b < 4 {
		b = 4
	}
	return b
}
