package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// appendCut adds a random row through or past the point x, the way the
// lazy cut loop appends supporting lines at its current optimum: tight
// at x (a degenerate vertex for the dual restart), cutting x off slightly
// from either side (the dual's work list), or cutting deep, which often
// empties the feasible region.
func appendCut(p *Problem, r *rand.Rand, x []float64) {
	var terms []Term
	act := 0.0
	for v := range x {
		if r.Float64() < 0.6 {
			c := r.NormFloat64()
			terms = append(terms, Term{v, c})
			act += c * x[v]
		}
	}
	if len(terms) == 0 {
		return
	}
	shift := 0.02 * r.Float64() * (1 + math.Abs(act))
	switch r.Intn(4) {
	case 0:
		p.AddConstraint(LE, act, terms...)
	case 1:
		p.AddConstraint(LE, act-shift, terms...)
	case 2:
		p.AddConstraint(GE, act+shift, terms...)
	default:
		p.AddConstraint(LE, act-50*shift, terms...)
	}
}

// agreeLP fails t unless got and want report the same outcome —
// both solved, or both failed, infeasible and unbounded alike — and,
// solved, objectives within rel relative.
func agreeLP(t *testing.T, what string, got, want *Solution, errG, errW error, rel float64) {
	t.Helper()
	if (errG == nil) != (errW == nil) ||
		errors.Is(errG, ErrInfeasible) != errors.Is(errW, ErrInfeasible) ||
		errors.Is(errG, ErrUnbounded) != errors.Is(errW, ErrUnbounded) {
		t.Fatalf("%s: err=%v, want err=%v", what, errG, errW)
	}
	if errW == nil && math.Abs(got.Obj-want.Obj) > rel*(1+math.Abs(want.Obj)) {
		t.Fatalf("%s: objective %v, want %v", what, got.Obj, want.Obj)
	}
}

// FuzzLP runs the lazy cut loop's lifecycle on one workspace — SolveWith,
// then two rounds of appended rows, ReSolveWith and PolishWith, the first
// restarting from the perturbed optimum and the second from the polished
// one — over a random bounded LP drawn from (seed, variables, rows,
// appended rows per round), and checks it against a fresh Solve of the
// final problem and against the dense tableau. It then hot-starts a
// perturbed copy from the exported basis: a success must polish to
// Solve's optimum, and a failure must leave the workspace to a clean cold
// restart, never reject the layout it came from.
func FuzzLP(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(4), uint8(3))   // GE/EQ rows: phase 1 runs on an artificial
	f.Add(int64(6), uint8(5), uint8(3), uint8(2))   // the appends empty the feasible region
	f.Add(int64(132), uint8(8), uint8(6), uint8(5)) // five appends tight at the optimum: a degenerate vertex
	f.Fuzz(func(t *testing.T, seed int64, nv, rows, extra uint8) {
		r := rand.New(rand.NewSource(seed))
		p := NewProblem()
		buildBoundedLP(p, r, 1+int(nv%12), int(rows%10))
		ws := NewWorkspace()
		got, err := p.SolveWith(ws)
		for round := 0; round < 2; round++ {
			if err == nil {
				for k := 0; k < int(extra%6); k++ {
					appendCut(p, r, got.X)
				}
			}
			got, err = p.ReSolveWith(ws)
			if err == nil {
				got, err = p.PolishWith(ws)
			}
		}
		want, errW := p.Solve()
		agreeLP(t, "lifecycle against Solve", got, want, err, errW, 1e-9)
		if errW == nil {
			checkFeasible(t, p, got.X, seed)
		}
		if dense, errD := p.SolveDense(); !errors.Is(errD, ErrDenseBounds) {
			agreeLP(t, "Solve against the dense tableau", want, dense, errW, errD, 1e-6)
		}
		if errW != nil {
			return
		}

		bas := ws.ExportBasis()
		if bas == nil {
			t.Fatal("no basis exported after a successful solve")
		}
		q := perturbNumbers(p, r, 1e-3)
		want, errW = q.Solve()
		got, hot, err := solveHot(t, q, NewWorkspace(), bas)
		what := "polished hot start against Solve"
		if !hot {
			what = "cold restart after a failed hot start"
		}
		agreeLP(t, what, got, want, err, errW, 1e-9)
	})
}
