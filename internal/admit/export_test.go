package admit

import (
	"fmt"

	"kkt/internal/congest"
)

// CheckLabels brings q's labels up to nw's marked forest, as the next wave
// start would, and compares them with a labelling built from scratch: the
// two must partition the nodes alike, and every label's size must be its
// component's.
func (q *Queue) CheckLabels(nw *congest.Network) error {
	q.labels.update(nw)
	return q.labels.check(nw)
}

// check compares the labels with a labelling of nw built from scratch.
func (got *labels) check(nw *congest.Network) error {
	var want labels
	want.relabel(nw)
	fwd, back := map[int32]int32{}, map[int32]int32{}
	for v := 1; v <= nw.N(); v++ {
		g, w := got.of[v], want.of[v]
		if m, ok := fwd[g]; ok && m != w {
			return fmt.Errorf("node %d: label %d also covers reference components %d and %d", v, g, m, w)
		}
		if m, ok := back[w]; ok && m != g {
			return fmt.Errorf("node %d: reference component %d split across labels %d and %d", v, w, m, g)
		}
		fwd[g], back[w] = w, g
		if got.size[g] != want.size[w] {
			return fmt.Errorf("node %d: label %d has size %d, its component %d", v, g, got.size[g], want.size[w])
		}
	}
	return nil
}

// LabelUpdates returns how many wave-start label updates relabelled every
// node and how many patched the labels from the mark log.
func (q *Queue) LabelUpdates() (full, incremental int) {
	return q.labels.full, q.labels.incremental
}

// ScanClaim starts an admission scan of nw as RunWave does (labels brought
// up to date, every claim freed) and returns the claim it hands the
// launcher.
func (q *Queue) ScanClaim(nw *congest.Network) Claim { return q.startScan(nw) }

// Claimed returns how many components the current scan has claimed.
func (q *Queue) Claimed() int { return len(q.claimed) }

// DuelStamp returns the last stamp the labels' alternating walk handed
// out; each walk takes two.
func (q *Queue) DuelStamp() uint32 { return q.labels.d.tag }
