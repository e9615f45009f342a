// Warm-starting phase 1 across instances: CaptureLP snapshots the solved
// LP's basis together with the exact sequence of supporting-line rows the
// lazy loop generated, and SolveLPDeltaWith replays that sequence on a
// structurally identical instance with edited processing times, so the
// simplex starts from the predecessor's optimal basis (lp.SolveHotWith)
// instead of the crash basis. This is the serving layer's delta path: an
// edited DAG re-solves in a handful of pivots instead of a cold solve.
//
// Snapshots only exist for the lazy-cut formulation: the min-cut sweep
// keeps no basis, so callers wanting a snapshot pin the lazy route
// (SolveLPFormulation with FormulationLazy).
package allot

import (
	"errors"

	"malsched/internal/lp"
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
// the structure fingerprint, and SolveLPDeltaWith degrades to a cold
// solve on any residual mismatch.
type LPSnapshot struct {
	Basis  *lp.Basis
	Cuts   []CutRef
	NTasks int
	M      int
}

// CaptureLP exports a warm-start snapshot of the last completed lazy-path
// solve on ws (SolveLPWith on the lazy route, or SolveLPDeltaWith). It
// returns nil when the workspace holds no transplantable state: the last
// solve failed, took another route, or was for a different instance
// shape than in.
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

// SolveLPDeltaWith solves LP (9) for in warm-starting from a snapshot
// captured on a structurally identical instance: it rebuilds the static
// model (whose layout depends only on structure), replays the snapshot's
// supporting-line rows in their original order so every row position
// matches the basis, transplants the basis via lp.SolveHotWith, and runs
// the ordinary lazy cut loop from there — edited tasks whose work
// variables now sit below their work functions get fresh cuts exactly as
// in a cold solve. The result is an exact optimum of LP (9) for in, the
// same LP the cold path solves; only the simplex's starting point
// differs. Any mismatch between snapshot and instance, and any failure
// of the warm solve but cancellation (a transplanted basis can turn
// numerically singular on the edited values), degrades to a cold
// SolveLPWith, never to an error a cold solve would not also produce.
func SolveLPDeltaWith(in *Instance, ws *Workspace, snap *LPSnapshot) (*Fractional, error) {
	return SolveLPDeltaFormulation(in, ws, snap, "")
}

// SolveLPDeltaFormulation is SolveLPDeltaWith under the formulation pin f,
// which every cold fallback keeps: it solves SolveLPFormulation(in, ws, f)
// wherever SolveLPDeltaWith solves the auto route. Only the lazy simplex
// keeps a basis, so a mincut pin ignores snap, and any other name is
// SolveLPFormulation's error.
func SolveLPDeltaFormulation(in *Instance, ws *Workspace, snap *LPSnapshot, f Formulation) (*Fractional, error) {
	if f != "" && f != FormulationLazy {
		return SolveLPFormulation(in, ws, f)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	n := in.G.N()
	if snap == nil || snap.Basis == nil || snap.NTasks != n || snap.M != in.M ||
		snap.Basis.NVars != 3*n+2 {
		return SolveLPFormulation(in, ws, f)
	}
	fronts := ws.frontiers(in)
	p := ws.buildBaseLP(in, fronts)

	// Replay the snapshot's cut rows in capture order. Edited processing
	// times can shrink a task's frontier, leaving a logged segment index
	// out of range; clamping to the last segment keeps the row count — and
	// with it every row position — aligned with the basis (the clamped
	// line is still a valid supporting line, merely a possibly redundant
	// one). A task whose frontier collapsed to a single point has no
	// supporting lines at all; no row can stand in, so that edit falls
	// back to the cold path.
	for _, c := range snap.Cuts {
		j := int(c.Task)
		if j < 0 || j >= n {
			return SolveLPFormulation(in, ws, f)
		}
		front := &fronts[j]
		segs := front.Segments()
		if segs < 1 {
			return SolveLPFormulation(in, ws, f)
		}
		s := int(c.Seg)
		if s < 0 {
			return SolveLPFormulation(in, ws, f)
		}
		if s >= segs {
			s = segs - 1
		}
		ws.logCut(p, front, j, s, n)
	}

	ws.LP.DeferPolish = true
	sol, err := p.SolveHotWith(&ws.LP, snap.Basis)
	cuts, rounds := 0, 0
	if err == nil {
		sol, cuts, rounds, err = ws.runCutLoop(p, fronts, sol, in.M)
	}
	if errors.Is(err, lp.ErrCanceled) {
		return nil, err
	}
	if err != nil {
		return SolveLPFormulation(in, ws, f)
	}
	ws.lastLazyN = n
	return ws.extractFractional(sol, fronts, cuts, rounds), nil
}
