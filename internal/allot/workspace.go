package allot

import (
	"malsched/internal/dag"
	"malsched/internal/flow"
	"malsched/internal/lp"
	"malsched/internal/malleable"
	"malsched/internal/prep"
)

// Workspace bundles the reusable solver state for the phase-1 LP path: the
// sparse simplex workspace (CSC model, basis factorization, eta file,
// pricing buffers), the LP problem under construction, the per-task
// efficient frontiers, and the lazy-cut bookkeeping (which supporting
// lines have been generated). All of it is grown geometrically and reused
// across solves, so repeated SolveLPWith calls on same-shaped instances do
// near-zero allocation beyond the returned Fractional. A Workspace is
// owned by one goroutine at a time; it is not safe for concurrent use.
type Workspace struct {
	// LP is the sparse simplex scratch memory, reused across solves.
	LP lp.Workspace

	prob      *lp.Problem
	fronts    []malleable.Frontier
	frontsFor *Instance // instance the cached fronts were computed for

	// Lazy-cut bookkeeping: segAdded[segOff[j]+s] marks segment s of task
	// j as already materialised as a supporting-line row; segRep marks the
	// slope-representative segments cuts may be generated from (see
	// SolveLPWith on near-collinear segment chains).
	segOff   []int32
	segAdded []bool
	segRep   []bool

	// Shared scratch: term buffer for wide rows, variable-offset table for
	// the LP (10) assignment blocks.
	terms []lp.Term
	offs  []int32

	// Crash-bound scratch: per-task longest-path values (the topological
	// order itself comes from the prep workspace in chains), and the
	// bounds of L and C from the last build (extractFractional clamps to
	// them).
	lpmin          []float64
	lFloor, cFloor float64

	// Cut replay log of the lazy path: every supporting-line row in append
	// order (seeds first, then separation rounds). CaptureLP copies it
	// into snapshots; SolveLPDeltaWith replays a snapshot's log to rebuild
	// a basis-compatible row layout. lastLazyN is the task count of the
	// last completed lazy-path solve (0 when the last solve took another
	// route or failed), guarding capture against exporting a basis whose
	// layout the log does not describe. totalSegs caches the summed
	// frontier segment count of the last build for the cut loop's round
	// cap.
	cutLog    []sepPick
	lastLazyN int
	totalSegs int

	// Flow is the parametric min-cut scratch of the mincut formulation;
	// mcArc maps task j to its crashable arc in the built network.
	Flow  flow.Workspace
	mcArc []int32

	// Envelope scratch of the min-cut network's crashing curves: the
	// representative-line buffers of repFill (mincut.go).
	repSlope []float64
	repIcpt  []float64
	repWidth []float64

	// Chain analysis (internal/prep): link successors and link-target
	// markers for the linear-chain row collapse of the lazy LP builder.
	chains    prep.Workspace
	linkInto  []bool
	chainNext []int32
}

// chainLinks computes the linear-chain structure of g into the
// workspace: chainNext[v] is v's chain-link successor (-1 when the edge
// out of v is not a link) and linkInto[w] marks link targets, so a
// maximal chain starts at any v with chainNext[v] >= 0 && !linkInto[v].
func (ws *Workspace) chainLinks(g *dag.DAG) {
	n := g.N()
	ws.chainNext = ws.chains.ChainNext(g)
	ws.linkInto = growBool(ws.linkInto, n)
	for v := 0; v < n; v++ {
		ws.linkInto[v] = false
	}
	for v := 0; v < n; v++ {
		if w := ws.chainNext[v]; w >= 0 {
			ws.linkInto[w] = true
		}
	}
}

// topo returns a topological order of g via the embedded prep
// workspace's buffers (the instance was validated, so g is acyclic).
func (ws *Workspace) topo(g *dag.DAG) []int32 {
	order, _ := ws.chains.Topo(g)
	return order
}

// lpminBuf returns the zeroed longest-path scratch of length n.
func (ws *Workspace) lpminBuf(n int) []float64 {
	ws.lpmin = grown(ws.lpmin, n)
	for i := range ws.lpmin {
		ws.lpmin[i] = 0
	}
	return ws.lpmin
}

// NewWorkspace returns an empty workspace ready for SolveLPWith.
func NewWorkspace() *Workspace {
	return &Workspace{prob: lp.NewProblem()}
}

// Release drops the workspace's reference to the last-solved instance (the
// frontier cache key) so long-lived pooled workspaces do not pin instances
// in memory between solves. The grown buffers are kept.
func (ws *Workspace) Release() {
	ws.frontsFor = nil
}

// problem returns the reusable LP problem, reset to empty.
func (ws *Workspace) problem() *lp.Problem {
	if ws.prob == nil {
		ws.prob = lp.NewProblem()
	}
	ws.prob.Reset()
	return ws.prob
}

// termBuf returns the shared term buffer, emptied, with capacity for at
// least n terms.
func (ws *Workspace) termBuf(n int) []lp.Term {
	if cap(ws.terms) < n {
		ws.terms = make([]lp.Term, 0, n)
	}
	ws.terms = ws.terms[:0]
	return ws.terms
}

// grown returns s resized to n with unspecified contents, reallocating
// geometrically (the package-local twin of lp's workspace helper).
func grown[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	return make([]T, n, c)
}

func growInt32(s []int32, n int) []int32 { return grown(s, n) }
func growBool(s []bool, n int) []bool    { return grown(s, n) }

// frontiers returns the efficient frontiers of in's tasks, computed into
// the workspace's reusable frontier slice. Consecutive calls for the same
// instance reuse the cached fronts without recomputation (instances are
// treated as immutable once solving starts, as everywhere in this package).
// The returned slice is valid until the next call.
func (ws *Workspace) frontiers(in *Instance) []malleable.Frontier {
	n := len(in.Tasks)
	if ws.frontsFor == in && len(ws.fronts) >= n {
		return ws.fronts[:n]
	}
	ws.frontsFor = nil
	for len(ws.fronts) < n {
		ws.fronts = append(ws.fronts, malleable.Frontier{})
	}
	fs := ws.fronts[:n]
	for j := range fs {
		malleable.FrontierInto(&fs[j], in.Tasks[j], in.M)
	}
	ws.frontsFor = in
	return fs
}
