package malsched

import (
	"context"
	"errors"

	"malsched/internal/core"
	"malsched/internal/engine"
	"malsched/internal/flow"
	"malsched/internal/lp"
)

// FailureKind classifies a solve error for the serving layer's degradation
// ladder: recoverable numerical failures are re-solved on a lower rung,
// everything else propagates as-is.
type FailureKind int

const (
	// FailNone: no failure, or an error outside the solver taxonomy
	// (bad request, context cancellation) that no fallback can fix.
	FailNone FailureKind = iota
	// FailIterLimit: the simplex hit its iteration budget.
	FailIterLimit
	// FailSingular: the basis stayed singular after repair attempts.
	FailSingular
	// FailNumeric: NaN/Inf taint in the result quantities.
	FailNumeric
	// FailInfeasible: the LP reported infeasible/unbounded. LP (9) is
	// feasible by construction for every valid instance, so on this
	// pipeline such a report is itself a numerical symptom.
	FailInfeasible
	// FailPanic: the job panicked on its worker (isolated by the engine).
	FailPanic
)

// ClassifyFailure maps a solve error into the taxonomy. Context errors and
// validation errors classify as FailNone: retrying them on another tier is
// pointless (and cancellation must never trigger a fallback solve).
func ClassifyFailure(err error) FailureKind {
	switch {
	case err == nil,
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, lp.ErrCanceled):
		return FailNone
	case errors.Is(err, lp.ErrIterLimit),
		errors.Is(err, flow.ErrStalled):
		// A stalled parametric sweep is the flow core's iteration-budget
		// analogue: progress stopped, the lazy simplex can still answer.
		return FailIterLimit
	case errors.Is(err, lp.ErrSingular):
		return FailSingular
	case errors.Is(err, core.ErrNumericTaint):
		return FailNumeric
	case errors.Is(err, lp.ErrInfeasible), errors.Is(err, lp.ErrUnbounded):
		return FailInfeasible
	case errors.Is(err, engine.ErrPanicked):
		return FailPanic
	}
	return FailNone
}

// Recoverable reports whether a lower solver rung may still produce an
// answer for this failure.
func (k FailureKind) Recoverable() bool { return k != FailNone }

// The stable reason labels carried by degraded responses and metrics.
// These constants are the single source of truth for the label strings:
// the errlabel analyzer (cmd/malschedvet) flags any other string literal
// with one of these values, so a label typo'd into a response or a
// metrics key cannot drift from the taxonomy.
const (
	labelIterLimit  = "iteration-limit"
	labelSingular   = "singular-basis"
	labelNumeric    = "nan-taint"
	labelInfeasible = "infeasible"
	labelPanic      = "solver-panic"
)

// String returns the stable reason label used in degraded responses and
// metrics ("" for FailNone). The switch lists every FailureKind
// explicitly — errlabel enforces exhaustiveness, so adding a Fail* class
// without wiring its label here is a build-time error.
func (k FailureKind) String() string {
	switch k {
	case FailNone:
		return ""
	case FailIterLimit:
		return labelIterLimit
	case FailSingular:
		return labelSingular
	case FailNumeric:
		return labelNumeric
	case FailInfeasible:
		return labelInfeasible
	case FailPanic:
		return labelPanic
	}
	return ""
}
