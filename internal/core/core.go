// Package core implements the paper's primary contribution: the two-phase
// approximation algorithm for scheduling malleable tasks with precedence
// constraints (Section 3), with approximation ratio at most
// 100/63 + 100(sqrt(6469)+13)/5481 ~= 3.291919 (Theorem 4.1, Corollary 4.1).
//
// Pipeline:
//
//  1. choose parameters rho*(m), mu*(m)            (Eqs. (19)-(20))
//  2. phase 1: solve LP (9), round with rho        (internal/allot)
//  3. phase 2: cap allotments at mu, run LIST      (internal/listsched)
//  4. verify feasibility and report the lower bound max{L*, W*/m} <= OPT.
//
// It is the one pipeline of every algorithm: LTW is SolveWith at its own
// rho and mu, and the fixed-allotment baselines finish through
// ScheduleWith, the LIST-and-verify tail of steps 3 and 4.
package core

import (
	"errors"
	"fmt"
	"math"

	"malsched/internal/allot"
	"malsched/internal/listsched"
	"malsched/internal/params"
	"malsched/internal/schedule"
	"malsched/internal/solver"
)

// ErrNumericTaint is reported when a solve produced a non-finite makespan
// or lower bound — the numerical state is poisoned (NaN/Inf crept through
// the LP or rounding) and the result cannot be trusted. Recoverable by
// re-solving on a different tier.
var ErrNumericTaint = errors.New("core: non-finite result (numeric taint)")

// Options tunes the solver. The zero value requests the paper's parameter
// choices.
type Options struct {
	// Rho overrides the rounding parameter when RhoSet is true.
	Rho    float64
	RhoSet bool
	// Mu overrides the allotment threshold when > 0.
	Mu int
	// CaptureLP asks for a warm-start snapshot of the phase-1 LP in
	// Result.LPSnapshot. Snapshots only exist on the lazy-cut route (the
	// min-cut sweep has no transplantable basis), so capture is
	// best-effort under every pin: when the solve runs on the sweep,
	// routed there or pinned, the result simply carries no snapshot. Pin
	// Formulation to lazy to make capture unconditional.
	CaptureLP bool
	// Formulation pins the phase-1 LP formulation (lazy or mincut);
	// empty lets the router pick by instance shape, and
	// allot.SolveLPFormulation rejects any other name.
	Formulation allot.Formulation
	// WarmLP warm-starts phase 1 from a snapshot captured on an instance
	// with the same structure (task count, DAG shape, machine count) —
	// the serving layer's delta path. Mismatched snapshots degrade to a
	// cold solve under the same pin; the result is an exact LP optimum
	// either way. A mincut pin ignores it, since the sweep has no basis to
	// start from.
	WarmLP *allot.LPSnapshot
}

// Result carries the schedule together with the analysis quantities of
// Section 4.
type Result struct {
	Schedule *schedule.Schedule
	// Fractional is the phase-1 LP optimum.
	Fractional *allot.Fractional
	// AlphaPrime is the rounded phase-1 allotment l'_j.
	AlphaPrime []int
	// Alpha is the final allotment l_j = min{l'_j, mu}.
	Alpha []int
	// Params records the (mu, rho, proven ratio) used.
	Params params.Choice
	// Makespan is the schedule length Cmax.
	Makespan float64
	// LowerBound is max{L*, W*/m} <= C* <= OPT (Eq. (11)).
	LowerBound float64
	// Guarantee is Makespan / LowerBound, an upper bound on the realised
	// approximation factor (the true factor vs OPT can only be smaller).
	Guarantee float64
	// LPSnapshot is the phase-1 warm-start snapshot when Options.CaptureLP
	// was set (nil when capture was impossible). It is expressed against
	// the transitively reduced instance, which is structure-determined, so
	// it transplants onto any instance with the same structure fingerprint.
	LPSnapshot *allot.LPSnapshot
}

// Solve runs the two-phase algorithm on the instance.
func Solve(in *allot.Instance, opt Options) (*Result, error) {
	return SolveWith(in, opt, nil)
}

// SolveWith is Solve with a reusable cross-phase workspace: the phase-1 LP
// tableau, pricing buffers and task frontiers plus the phase-2 capacity
// profile and ready queue live in ws and are reused across calls (a nil ws
// solves with fresh buffers). The returned Result never aliases workspace
// memory, so it stays valid across subsequent solves.
func SolveWith(in *allot.Instance, opt Options, ws *solver.Workspace) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	choice := params.Choose(in.M)
	if opt.RhoSet {
		if opt.Rho < 0 || opt.Rho > 1 {
			return nil, fmt.Errorf("core: rho=%v outside [0,1]", opt.Rho)
		}
		choice.Rho = opt.Rho
		choice.R = params.Objective(in.M, choice.Mu, opt.Rho)
	}
	if opt.Mu > 0 {
		if opt.Mu > in.M {
			return nil, fmt.Errorf("core: mu=%d exceeds m=%d", opt.Mu, in.M)
		}
		choice.Mu = opt.Mu
		choice.R = params.Objective(in.M, opt.Mu, choice.Rho)
	}

	// Preprocess (internal/prep via the workspace): both phases run on
	// the transitively reduced instance — same tasks, same indices, same
	// partial order — while verification below stays against the
	// original graph.
	red := ws.Reduce(in)

	// The frontier cache in ws is shared by SolveLPFormulation and
	// RoundWith; release it on exit so a pooled workspace does not pin
	// the instance.
	defer ws.Release()
	lpws := ws.LP()
	if lpws == nil && opt.CaptureLP {
		lpws = allot.NewWorkspace() // capture needs a handle on the solve's state
	}
	var frac *allot.Fractional
	var err error
	if opt.WarmLP != nil {
		frac, err = allot.SolveLPDeltaFormulation(red, lpws, opt.WarmLP, opt.Formulation)
	} else {
		frac, err = allot.SolveLPFormulation(red, lpws, opt.Formulation)
	}
	if err != nil {
		return nil, err
	}
	var snap *allot.LPSnapshot
	if opt.CaptureLP && frac.Formulation == allot.FormulationLazy {
		// Only the lazy route leaves a transplantable basis + cut log in
		// the workspace; after the sweep the capture state is stale.
		snap = lpws.CaptureLP(red)
	}
	alphaPrime := allot.RoundWith(red, frac, choice.Rho, lpws)
	res, err := finish(in, red, listsched.CapAllotment(alphaPrime, choice.Mu), ws)
	if err != nil {
		return nil, err
	}

	lb := frac.L
	if w := frac.W / float64(in.M); w > lb {
		lb = w
	}
	// C* from the LP can sit marginally above max{L*,W*/m} only through
	// numerical slack; certify with the larger of the two quantities.
	if frac.C > lb {
		lb = frac.C
	}
	if !isFinite(lb) {
		return nil, fmt.Errorf("%w: lb=%v", ErrNumericTaint, lb)
	}
	res.Fractional, res.AlphaPrime, res.Params = frac, alphaPrime, choice
	res.LowerBound, res.LPSnapshot = lb, snap
	if lb > 0 {
		res.Guarantee = res.Makespan / lb
	}
	return res, nil
}

// ScheduleWith finishes a fixed allotment alpha with the pipeline's tail,
// the same one SolveWith ends in: LIST on the transitively reduced
// instance, Verify against the original DAG, then the finite-makespan
// check. It is how the baselines (sequential, full allotment, greedy
// critical path) turn their allotments into checked schedules; the
// result carries no phase-1 quantities (LowerBound 0, zero Params).
func ScheduleWith(in *allot.Instance, alpha []int, ws *solver.Workspace) (*Result, error) {
	return finish(in, ws.Reduce(in), alpha, ws)
}

// finish runs LIST on red (in with its graph reduced) and checks the
// schedule against in's own graph.
func finish(in, red *allot.Instance, alpha []int, ws *solver.Workspace) (*Result, error) {
	sched, err := listsched.RunWith(red, alpha, ws.Sched())
	if err != nil {
		return nil, err
	}
	if err := sched.Verify(in.G); err != nil {
		return nil, fmt.Errorf("core: produced infeasible schedule: %w", err)
	}
	makespan := sched.Makespan()
	if !isFinite(makespan) {
		return nil, fmt.Errorf("%w: makespan=%v", ErrNumericTaint, makespan)
	}
	return &Result{Schedule: sched, Alpha: alpha, Makespan: makespan}, nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
