package admit

import (
	"fmt"

	"kkt/internal/congest"
	"kkt/internal/faultplan"
	"kkt/internal/tree"
)

// Action describes what one update did to the maintained forest.
type Action int

const (
	// NoOp: the change did not affect the maintained forest.
	NoOp Action = iota + 1
	// Reconnected: a replacement edge was found and marked.
	Reconnected
	// Bridge: the deleted edge was a bridge; the component stays split.
	Bridge
	// Added: the inserted edge joined two trees.
	Added
	// Swapped: the inserted/cheapened edge replaced the heaviest path
	// edge (MSF only).
	Swapped
	// Kept: the inserted/cheapened edge lost to the existing path (MSF
	// only).
	Kept
	// Failed: the randomized search gave up (probability ~ n^-c for the
	// Full variants); the forest may be left disconnected.
	Failed
	// Skipped: the event could not apply. Its target vanished (the edge
	// to delete no longer exists, the pair to insert is already linked)
	// or the network refused it (a weight outside its raw range). The
	// fault-plan compiler never emits such events against its own model,
	// but the queue tolerates them defensively — a hand-written plan may
	// race itself. An update applied on its own reports an error instead.
	Skipped
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
	case Swapped:
		return "swapped"
	case Kept:
		return "kept"
	case Failed:
		return "failed"
	case Skipped:
		return "skipped"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Report is the outcome and cost of one update applied on its own.
type Report struct {
	Action Action
	Cost
}

// Cost is the metered cost of one repair run by Apply: the engine's
// message and bit deltas and the simulated time it took.
type Cost struct {
	Messages uint64
	Bits     uint64
	Time     int64
}

// Structure describes one maintained forest (the weighted MSF or the
// spanning forest) to the shared repair machine and Repairer: its
// replacement search and its insert probe.
type Structure[S tree.Search] struct {
	// DeleteOp and InsertOp label the observer's operations
	// ("mst.delete", "mst.insert").
	DeleteOp, InsertOp string
	// Seed keys each delete-style repair's search (see Launch).
	Seed uint64
	// NewSearch builds a replacement search (FindMin for the MSF, FindAny
	// for the spanning forest); Arm re-arms one at a repair's root, seeding
	// its random stream.
	NewSearch func() S
	Arm       func(s S, root congest.NodeID, seed uint64)
	// Probe is the insert-style broadcast-and-echo from the root: its
	// echo word is 0 when peer is not in the root's tree.
	Probe func(peer congest.NodeID) *tree.Spec
	// Settle decides an insert whose peer is in the root's tree from the
	// probe's nonzero word: either the forest keeps its edges (nil spec)
	// or the root broadcasts the returned spec. The action is final once
	// that broadcast completes.
	Settle func(nw *congest.Network, root, peer congest.NodeID, word uint64) (*tree.Spec, Action)
	// Reweight admits a weight change (the MSF's extension, which calls
	// Launch for the repair it needs). Without it the structure is
	// unweighted: weight changes are skipped and inserts carry weight 1.
	Reweight func(r *Repairer[S], ev faultplan.Event, claim Claim) Decision
}

// Repairer is the Launcher of every maintained forest: it classifies each
// event against live topology, applies its mutation under the granted
// claim and launches one repair machine for it, rooted where the claim
// says (see Claim.Root).
type Repairer[S tree.Search] struct {
	nw   *congest.Network
	pr   *tree.Protocol
	s    Structure[S]
	free []*repair[S]
}

// NewRepairer returns the storm launcher maintaining s on nw/pr.
func NewRepairer[S tree.Search](nw *congest.Network, pr *tree.Protocol, s Structure[S]) *Repairer[S] {
	return &Repairer[S]{nw: nw, pr: pr, s: s}
}

// Apply applies one update on an idle network: the storm's admission
// branches under the zero Claim, which has nothing to claim and roots at
// the smaller endpoint ID. An event that cannot apply is an error. A
// repair then runs as the one-repair wave; on a driver or engine error
// nothing is applied and the observer's bracket stays open.
func Apply[S tree.Search](nw *congest.Network, pr *tree.Protocol, s Structure[S], ev faultplan.Event) (Report, error) {
	r := &Repairer[S]{nw: nw, pr: pr, s: s}
	dec := r.Admit(ev, Claim{})
	if dec.Err != nil {
		return Report{}, dec.Err
	}
	if dec.Inline {
		Inline(nw, dec.Op, dec.Action)
		return Report{Action: dec.Action}, nil
	}
	cost, err := runWave(nw, 0, []launchItem{{op: dec.Op, driver: dec.Driver}})
	if err != nil {
		return Report{}, err
	}
	return Report{Action: dec.Driver.Action(), Cost: cost}, nil
}

// Network returns the network the Repairer maintains.
func (r *Repairer[S]) Network() *congest.Network { return r.nw }

// Release implements Launcher.
func (r *Repairer[S]) Release(rp Repair) {
	r.free = append(r.free, rp.(*repair[S]))
}

// Launch returns the decision that runs one repair of {a,b}: a
// delete-style one searches from the root's tree and marks the
// replacement, an insert-style one probes from the root. The claim the
// event was admitted under picks the root (Claim.Root). The search draws
// from Seed^root<<32^peer^salt: the same values however the event lists
// its endpoints, and apart for updates of one pair with different salts.
// The event's mutation must already be applied under its claim.
func (r *Repairer[S]) Launch(op string, claim Claim, deleteStyle bool, a, b congest.NodeID, salt uint64) Decision {
	root, peer := claim.Root(deleteStyle, a, b)
	var rp *repair[S]
	if n := len(r.free); n > 0 {
		rp = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		rp = new(repair[S])
	}
	seed := r.s.Seed ^ uint64(root)<<32 ^ uint64(peer) ^ salt
	*rp = repair[S]{r: r, search: rp.search, hasSearch: rp.hasSearch, deleteStyle: deleteStyle, root: root, peer: peer, seed: seed}
	if deleteStyle && !rp.hasSearch {
		// Only delete-style repairs search; a pooled machine keeps its
		// search once built.
		rp.search, rp.hasSearch = r.s.NewSearch(), true
	}
	return Decision{Op: op, Driver: rp}
}

// Admit implements Launcher. Apply takes the same branches for a single
// update.
func (r *Repairer[S]) Admit(ev faultplan.Event, claim Claim) Decision {
	a, b := congest.NodeID(ev.A), congest.NodeID(ev.B)
	switch ev.Op {
	case faultplan.OpDelete:
		op := r.s.DeleteOp
		he := r.nw.Node(a).EdgeTo(b)
		if he == nil {
			return Skip(op, fmt.Errorf("%s: no link {%d,%d}", op, a, b))
		}
		if !he.Marked {
			r.nw.DeleteLink(a, b)
			return Decision{Inline: true, Action: NoOp, Op: op}
		}
		if !claim.Acquire(a, 0) {
			return Decision{Deferred: true}
		}
		r.nw.DeleteLink(a, b)
		return r.Launch(op, claim, true, a, b, 0)

	case faultplan.OpInsert:
		op := r.s.InsertOp
		if a == b || min(a, b) == 0 || int(max(a, b)) > r.nw.N() || r.nw.Node(a).EdgeTo(b) != nil {
			return Skip(op, fmt.Errorf("%s: {%d,%d} is not a new link between two nodes", op, a, b))
		}
		if !claim.Acquire(a, b) {
			return Decision{Deferred: true}
		}
		raw := ev.Raw
		if r.s.Reweight == nil {
			raw = 1
		}
		if err := r.nw.InsertLink(a, b, raw); err != nil {
			return Skip(op, err)
		}
		return r.Launch(op, claim, false, a, b, 0)

	case faultplan.OpWeightChange:
		if r.s.Reweight != nil {
			return r.s.Reweight(r, ev, claim)
		}
	}
	return Skip(ev.Op.String(), fmt.Errorf("admit: %v does not apply to this forest", ev.Op))
}

// Skip is the inline decision for an event that cannot apply, and why.
func Skip(op string, err error) Decision {
	return Decision{Inline: true, Action: Skipped, Op: op, Err: err}
}

// repair is the one repair state machine, a continuation driver run in an
// admission wave or on its own by Apply. A delete-style repair runs the
// structure's search from the root's tree and broadcasts Add Edge for the
// edge it finds; an insert-style one runs the structure's probe and then
// marks the new edge, settles, or keeps the forest. It never awaits
// quiescence or applies staged marks itself: whoever runs it does, once
// the engine is quiescent (see the package's safety argument).
type repair[S tree.Search] struct {
	r         *Repairer[S]
	search    S
	hasSearch bool

	deleteStyle bool
	// root is the repair initiator and peer the other endpoint.
	root, peer congest.NodeID
	seed       uint64

	st     uint8
	action Action
}

const (
	rsStart  uint8 = iota
	rsSearch       // stepping the search
	rsProbe        // awaiting the insert probe's echo word
	rsFinish       // awaiting the last broadcast (Add Edge or the settle); action is set
)

// Action implements Repair; valid once the task finished.
func (rp *repair[S]) Action() Action { return rp.action }

// Step implements congest.StepDriver.
func (rp *repair[S]) Step(t *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	nw, pr, s := rp.r.nw, rp.r.pr, &rp.r.s
	switch rp.st {
	case rsStart:
		if rp.deleteStyle {
			s.Arm(rp.search, rp.root, rp.seed)
			rp.st = rsSearch
			return rp.stepSearch(t, congest.Wake{})
		}
		rp.st = rsProbe
		return pr.StartBroadcastEcho(rp.root, s.Probe(rp.peer)), false, nil

	case rsSearch:
		return rp.stepSearch(t, w)

	case rsProbe:
		word, err := w.U()
		if err != nil {
			return 0, true, err
		}
		if word == 0 {
			// peer is in a different tree: the new edge joins two trees.
			// The far half arrives via markx before the Run quiesces.
			nw.Node(rp.root).StageMark(rp.peer)
			pr.SendMarkX(rp.root, rp.peer)
			rp.action = Added
			return 0, true, nil
		}
		spec, action := s.Settle(nw, rp.root, rp.peer, word)
		rp.action = action
		if spec == nil {
			return 0, true, nil
		}
		rp.st = rsFinish
		return pr.StartBroadcastEcho(rp.root, spec), false, nil

	case rsFinish:
		return 0, true, w.Err()
	}
	panic("admit: repair stepped after done")
}

// stepSearch delegates to the search and, once it finished, dispatches on
// its outcome: broadcast Add Edge for a found edge, or finish as a bridge
// or a failed search.
func (rp *repair[S]) stepSearch(t *congest.Task, w congest.Wake) (congest.SessionID, bool, error) {
	next, done, err := rp.search.Step(t, w)
	if !done {
		return next, false, err
	}
	if err != nil {
		return 0, true, err
	}
	edgeNum, o := rp.search.Found()
	switch o {
	case tree.FoundEdge:
		rp.action, rp.st = Reconnected, rsFinish
		return rp.r.pr.StartBroadcastEcho(rp.root, tree.AddEdgeSpec(edgeNum)), false, nil
	case tree.EmptyCut:
		rp.action = Bridge
	default:
		rp.action = Failed
	}
	return 0, true, nil
}
