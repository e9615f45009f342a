// Package lp implements linear-programming support for the allotment phase
// of the Jansen–Zhang algorithm: two from-scratch solvers for programs of
// the form
//
//	minimize  c·x
//	subject to  a_i·x  (<= | >= | =)  b_i,   lo_j <= x_j <= hi_j.
//
// Go's ecosystem has no standard LP solver, so both are built on the
// standard library only.
//
// The default solver (Solve / SolveWith / ReSolveWith) is a sparse
// bounded-variable revised simplex: constraint columns are stored in
// compressed sparse column form, the basis is maintained as a sparse LU
// factorization (Gilbert–Peierls left-looking, partial pivoting) updated
// with a product-form eta file and refactorized periodically, pricing is
// devex (reference-framework weights, bucketed partial pricing) with a
// Bland fallback on degenerate stalls, and variable bounds are handled
// implicitly (SetBounds) so domain rows never enter the constraint
// matrix. ReSolveWith warm-starts from the previous optimal basis with
// the dual simplex after rows were appended, which is what the lazy cut
// loop in internal/allot runs on, and SolveHotWith starts from a basis
// transplanted from another problem of the same layout.
//
// Against the allotment LP's massive degeneracy these solves optimise
// cost-perturbed objectives and leave the perturbation in place, so an
// iterating caller can steer by near-optimal answers and pay for the
// exact one once: PolishWith removes the perturbation, and Solve does
// both.
//
// The original dense two-phase tableau solver is retained as SolveDense /
// SolveDenseWith (see dense.go): it is the differential-testing reference
// for the sparse core, exactly as listsched.RunReference is for the
// phase-2 scheduler.
//
// For repeated solves both solvers support amortised allocation through
// reusable workspaces (grown geometrically, reused across solves), and
// Problem.Reset lets a caller rebuild a same-shaped problem in place.
package lp

import (
	"errors"
	"fmt"
	"math"

	"malsched/internal/cancelflag"
)

// Sense is the direction of a linear constraint.
type Sense int

const (
	LE Sense = iota // a·x <= b
	GE              // a·x >= b
	EQ              // a·x  = b
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	default:
		return "="
	}
}

// Term is one coefficient of a linear expression.
type Term struct {
	Var  int
	Coef float64
}

type constraint struct {
	terms []Term
	sense Sense
	rhs   float64
}

// Problem is a linear program under construction. Variables default to the
// non-negative orthant [0, +Inf); SetBounds attaches general bounds that
// the sparse solver enforces implicitly, without constraint rows.
type Problem struct {
	nvars int
	obj   []float64 // objective coefficient per variable
	lo    []float64 // lower bound per variable
	hi    []float64 // upper bound per variable
	cons  []constraint
}

// NewProblem returns an empty minimisation problem.
func NewProblem() *Problem {
	return &Problem{}
}

// Reset clears the problem to empty while keeping the allocated capacity of
// its variable, objective, bound and constraint storage, so a caller
// rebuilding a same-shaped problem performs (almost) no allocation.
func (p *Problem) Reset() {
	p.nvars = 0
	p.obj = p.obj[:0]
	p.lo = p.lo[:0]
	p.hi = p.hi[:0]
	p.cons = p.cons[:0]
}

// AddVar introduces a new variable with default bounds [0, +Inf) and
// returns its index. The name documents the call site only; the solver
// does not retain it.
func (p *Problem) AddVar(name string) int {
	p.obj = append(p.obj, 0)
	p.lo = append(p.lo, 0)
	p.hi = append(p.hi, math.Inf(1))
	p.nvars++
	return p.nvars - 1
}

// NumVars returns the number of variables declared so far.
func (p *Problem) NumVars() int { return p.nvars }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// SetObj sets the objective coefficient of variable v.
func (p *Problem) SetObj(v int, c float64) {
	p.checkVar(v)
	p.obj[v] = c
}

// SetBounds restricts variable v to lo <= x_v <= hi. The sparse solver
// enforces bounds implicitly (they cost nothing per simplex iteration);
// the dense reference materialises them as explicit rows. lo must be
// finite (hi may be +Inf), lo <= hi, and neither may be NaN; lo == hi
// fixes the variable.
func (p *Problem) SetBounds(v int, lo, hi float64) {
	p.checkVar(v)
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || lo > hi {
		panic(fmt.Sprintf("lp: invalid bounds [%v, %v] for variable %d", lo, hi, v))
	}
	p.lo[v] = lo
	p.hi[v] = hi
}

// Bounds returns the bounds of variable v.
func (p *Problem) Bounds(v int) (lo, hi float64) {
	p.checkVar(v)
	return p.lo[v], p.hi[v]
}

// AddConstraint appends the constraint terms (sense) rhs. After a Reset the
// term storage of previously built constraints is reused.
func (p *Problem) AddConstraint(sense Sense, rhs float64, terms ...Term) {
	for _, t := range terms {
		p.checkVar(t.Var)
	}
	if len(p.cons) < cap(p.cons) {
		// Reuse the retired constraint's term buffer (Reset keeps capacity).
		p.cons = p.cons[:len(p.cons)+1]
	} else {
		p.cons = append(p.cons, constraint{})
	}
	c := &p.cons[len(p.cons)-1]
	c.terms = append(c.terms[:0], terms...)
	c.sense = sense
	c.rhs = rhs
}

func (p *Problem) checkVar(v int) {
	if v < 0 || v >= p.nvars {
		panic(fmt.Sprintf("lp: variable %d out of range (have %d)", v, p.nvars))
	}
}

// Solution is an optimal basic solution.
type Solution struct {
	X   []float64 // values of the original variables
	Obj float64   // objective value c·X
	// Stats describes the solver effort.
	Stats Stats
}

// Stats reports simplex effort for benchmarking and diagnostics.
type Stats struct {
	Rows        int // constraint rows
	Cols        int // structural + logical (+ artificial) columns
	Phase1Iters int
	Phase2Iters int // includes dual-simplex iterations of warm restarts
	// Factorizations counts basis (re)factorizations of the sparse solver;
	// the dense reference leaves it zero.
	Factorizations int
}

// Solver failure modes.
var (
	ErrInfeasible = errors.New("lp: problem is infeasible")
	ErrUnbounded  = errors.New("lp: problem is unbounded")
	ErrIterLimit  = errors.New("lp: iteration limit exceeded")
	ErrSingular   = errors.New("lp: basis is numerically singular")
	// ErrCanceled is returned when Workspace.Cancel was set mid-solve; it
	// aliases cancelflag.ErrCanceled so callers match either sentinel.
	ErrCanceled = cancelflag.ErrCanceled
)

// FaultLUFactor is a fault-injection hook (internal/faultinject): when
// non-nil and returning true, a basis factorization reports ErrSingular.
// nil in production builds — the cost there is one pointer comparison per
// factorization.
var FaultLUFactor func() bool

const tol = 1e-9

// grow returns s resized to n, reallocating geometrically when the capacity
// is insufficient. Contents are unspecified (callers zero-fill).
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	return make([]T, n, c)
}

// Solve runs the sparse revised simplex and returns an exact optimal
// solution: SolveWith on a fresh workspace, then PolishWith. The returned
// Solution owns its X slice: it does not alias any solver state and stays
// valid indefinitely. The problem is left unmodified.
func (p *Problem) Solve() (*Solution, error) {
	ws := NewWorkspace()
	if _, err := p.SolveWith(ws); err != nil {
		return nil, err
	}
	sol, err := p.PolishWith(ws)
	if err != nil {
		return nil, err
	}
	owned := *sol
	owned.X = append([]float64(nil), sol.X...)
	return &owned, nil
}

// SolveDense runs the dense two-phase tableau reference solver. Like
// Solve, the returned Solution owns its X slice.
func (p *Problem) SolveDense() (*Solution, error) {
	sol, err := p.SolveDenseWith(NewDenseWorkspace())
	if err != nil {
		return nil, err
	}
	owned := *sol
	owned.X = append([]float64(nil), sol.X...)
	return &owned, nil
}
