// Warm-starting phase 1 across instances: CaptureLP snapshots the solved
// LP's basis together with the exact sequence of supporting-line rows the
// lazy loop generated, and a solve started from that snapshot
// (SolveLPFrom, SolveLPDeltaWith) replays the sequence on a structurally
// identical instance with edited processing times, so the simplex starts
// from the predecessor's optimal basis (lp.SolveHotWith) instead of the
// crash basis. This is the serving layer's delta path: an edited DAG
// re-solves in a handful of pivots instead of a cold solve. The snapshot
// only moves the start; the cut loop and the optimum it reaches are the
// cold solve's. A start lp rejects — a basis whose layout does not match
// the replayed rows, or one that turns singular on the edited values —
// fails, and SolveLPFrom restarts the solve cold from the seeds.
//
// Snapshots only exist for the lazy-cut formulation: the min-cut sweep
// keeps no basis, so callers wanting a snapshot pin the lazy route
// (SolveLPFormulation with FormulationLazy).
package allot

import (
	"malsched/internal/lp"
	"malsched/internal/malleable"
)

// CutRef identifies one supporting-line row: segment Seg of task Task's
// efficient frontier.
type CutRef struct {
	Task int32 `json:"t"`
	Seg  int32 `json:"s"`
}

// LPSnapshot is a transplantable warm start for LP (9): the optimal basis
// of a solved instance plus the replay log of lazily generated
// supporting-line rows, in append order. A snapshot is immutable once
// captured and safe to share across goroutines; it is only meaningful for
// instances whose structure (task count, machine size, DAG shape) matches
// the instance it was captured from — the serving layer enforces that via
// the structure fingerprint, and a solve started from it degrades to a
// cold solve on any residual mismatch.
type LPSnapshot struct {
	Basis  *lp.Basis
	Cuts   []CutRef
	NTasks int
	M      int
}

// CaptureLP exports a warm-start snapshot of the last completed lazy-path
// solve on ws, cold or warm. It returns nil when the workspace holds no
// transplantable state: the last solve failed, took another route, or
// was for a different instance shape than in.
//
// The snapshot replays the full cut log, slack rows included. Slack rows
// could be dropped without unbalancing the basis (one row, one basic
// logical), but each supporting line is a globally valid lower bound on
// its task's work, and keeping only the lines binding at the old optimum
// lets the warm solve's early iterations wander into the regions the
// dropped lines used to fence off — the cut loop then re-separates most
// of the log back, which is the cold solve's dominant cost. Replaying
// everything keeps the relaxation at full strength, so the loop after a
// warm start converges in a couple of rounds of genuinely new cuts.
func (ws *Workspace) CaptureLP(in *Instance) *LPSnapshot {
	n := in.G.N()
	if ws.lastLazyN == 0 || ws.lastLazyN != n {
		return nil
	}
	bas := ws.LP.ExportBasis()
	if bas == nil || bas.NVars != 3*n+2 {
		return nil
	}
	cuts := make([]CutRef, len(ws.cutLog))
	for i, pk := range ws.cutLog {
		cuts[i] = CutRef{Task: pk.task, Seg: pk.seg}
	}
	return &LPSnapshot{Basis: bas, Cuts: cuts, NTasks: n, M: in.M}
}

// SolveLPDeltaWith is SolveLPFrom on the auto route: it solves LP (9) for
// in warm-started from a snapshot captured on a structurally identical
// instance. The result is an exact optimum of LP (9) for in, the same LP
// the cold path solves; only the simplex's starting point differs.
func SolveLPDeltaWith(in *Instance, ws *Workspace, snap *LPSnapshot) (*Fractional, error) {
	return SolveLPFrom(in, ws, "", snap)
}

// fits reports whether snap can start the lazy solve of in: it was
// captured on an instance with in's task count, machine size and
// variable layout, and every logged cut names a task of in that still
// has a supporting line, at a non-negative segment. A task whose
// frontier an edit collapsed to a single point has no supporting lines
// at all, and no row can stand in for its logged ones. A nil snap fits
// nothing.
func (snap *LPSnapshot) fits(in *Instance, fronts []malleable.Frontier) bool {
	n := in.G.N()
	if snap == nil || snap.Basis == nil || snap.NTasks != n || snap.M != in.M ||
		snap.Basis.NVars != 3*n+2 {
		return false
	}
	for _, c := range snap.Cuts {
		if c.Task < 0 || int(c.Task) >= n || c.Seg < 0 || fronts[c.Task].Segments() < 1 {
			return false
		}
	}
	return true
}

// replay materialises a fitting snapshot's cut log into p in capture
// order, so every row position matches the snapshot's basis. Edited
// processing times can shrink a task's frontier, leaving a logged
// segment index out of range; clamping to the last segment keeps the row
// count, and with it every row position, aligned with the basis (the
// clamped line is still a valid supporting line, merely a possibly
// redundant one).
func (ws *Workspace) replay(p *lp.Problem, fronts []malleable.Frontier, snap *LPSnapshot) {
	for _, c := range snap.Cuts {
		f := &fronts[c.Task]
		ws.logCut(p, f, int(c.Task), min(int(c.Seg), f.Segments()-1), len(fronts))
	}
}
