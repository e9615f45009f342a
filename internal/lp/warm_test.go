package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// perturbNumbers returns a copy of p with the same structure (variables,
// rows, senses, sparsity pattern) but every number — objective, bounds,
// coefficients, rhs — multiplicatively perturbed by about eps. This is
// the shape of problem SolveHotWith exists for: the edited instance of
// the serving layer's delta path.
func perturbNumbers(p *Problem, r *rand.Rand, eps float64) *Problem {
	jitter := func(x float64) float64 {
		if x == 0 || math.IsInf(x, 0) {
			return x
		}
		return x * (1 + eps*r.NormFloat64())
	}
	q := NewProblem()
	for v := 0; v < p.NumVars(); v++ {
		q.AddVar("")
		q.SetObj(v, jitter(p.obj[v]))
		lo, hi := p.Bounds(v)
		if lo == hi {
			f := jitter(lo)
			q.SetBounds(v, f, f)
			continue
		}
		nl, nh := jitter(lo), jitter(hi)
		if nh < nl {
			nl, nh = nh, nl
		}
		q.SetBounds(v, nl, nh)
	}
	for _, c := range p.cons {
		terms := make([]Term, len(c.terms))
		for i, t := range c.terms {
			terms[i] = Term{t.Var, jitter(t.Coef)}
		}
		q.AddConstraint(c.sense, jitter(c.rhs), terms...)
	}
	return q
}

// polishedBasis solves and polishes p on ws and exports the basis, which
// is the basis the lazy cut loop's last step leaves for a snapshot.
func polishedBasis(p *Problem, ws *Workspace) (*Basis, error) {
	if _, err := p.SolveWith(ws); err != nil {
		return nil, err
	}
	if _, err := p.PolishWith(ws); err != nil {
		return nil, err
	}
	return ws.ExportBasis(), nil
}

// solveHot runs what a caller of SolveHotWith runs: the hot start, a cold
// SolveWith on the same workspace where the hot start fails, then
// PolishWith. hot reports whether the hot start itself succeeded. bas
// must fit q's layout, so the layout error fails t.
func solveHot(t *testing.T, q *Problem, ws *Workspace, bas *Basis) (sol *Solution, hot bool, err error) {
	t.Helper()
	sol, err = q.SolveHotWith(ws, bas)
	if errors.Is(err, errBasisMismatch) {
		t.Fatalf("hot start rejected the layout of a basis that fits: %v", err)
	}
	hot = err == nil
	if !hot {
		sol, err = q.SolveWith(ws)
	}
	if err == nil {
		sol, err = q.PolishWith(ws)
	}
	return sol, hot, err
}

// TestSolveHotMatchesCold is the core differential test for the warm
// start: transplanting the polished basis of a solved LP onto a
// same-structure, perturbed-numbers LP must reach the same optimum a cold
// solve finds, after PolishWith. A hot start may fail numerically, which
// leaves its caller a cold restart, but on this generator most must not.
func TestSolveHotMatchesCold(t *testing.T) {
	hotWS, coldWS, baseWS := NewWorkspace(), NewWorkspace(), NewWorkspace()
	agreed := 0
	for seed := int64(0); seed < 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		base := NewProblem()
		buildBoundedLP(base, r, 2+r.Intn(8), 1+r.Intn(8))
		bas, err := polishedBasis(base, baseWS)
		if err != nil {
			continue // infeasible base: nothing to warm-start from
		}
		if bas == nil {
			t.Fatalf("seed %d: no basis exported after successful solve", seed)
		}
		edited := perturbNumbers(base, r, 1e-3)
		hot, hotStarted, errH := solveHot(t, edited, hotWS, bas)
		cold, errC := edited.SolveWith(coldWS)
		if errC == nil {
			cold, errC = edited.PolishWith(coldWS)
		}
		if (errH == nil) != (errC == nil) {
			t.Fatalf("seed %d: hot err=%v cold err=%v", seed, errH, errC)
		}
		if errH != nil {
			continue
		}
		tolObj := 1e-9 * (1 + math.Abs(cold.Obj))
		if math.Abs(hot.Obj-cold.Obj) > tolObj {
			t.Errorf("seed %d: objective hot %v != cold %v", seed, hot.Obj, cold.Obj)
		}
		checkFeasible(t, edited, hot.X, seed)
		if hotStarted {
			agreed++
		}
	}
	if agreed < 100 {
		t.Fatalf("only %d/200 seeds produced solvable pairs the hot start solved; generator or hot start broken", agreed)
	}
}

// TestSolveHotIdenticalProblem: re-solving the exact problem the basis
// came from must terminate without simplex work — the transplanted basis
// is already optimal, so both bound-shift and restore phases are empty.
func TestSolveHotIdenticalProblem(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	p := NewProblem()
	buildBoundedLP(p, r, 8, 6)
	ws := NewWorkspace()
	if _, err := p.SolveWith(ws); err != nil {
		t.Fatal(err)
	}
	cold, err := p.PolishWith(ws)
	if err != nil {
		t.Fatal(err)
	}
	coldObj := cold.Obj
	bas := ws.ExportBasis()
	hws := NewWorkspace()
	hot, err := p.SolveHotWith(hws, bas)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Stats.Phase1Iters != 0 {
		t.Errorf("warm start ran %d phase-1 iterations; must never need artificials", hot.Stats.Phase1Iters)
	}
	if hot, err = p.PolishWith(hws); err != nil {
		t.Fatal(err)
	}
	if math.Abs(hot.Obj-coldObj) > 1e-9*(1+math.Abs(coldObj)) {
		t.Errorf("identical re-solve moved the objective: %v -> %v", coldObj, hot.Obj)
	}
}

// TestSolveHotFallsBack: a basis that does not fit the problem must fail
// the hot start with the layout error, and leave the workspace for the
// caller's cold restart: SolveWith on the same workspace must then reach
// the optimum.
func TestSolveHotFallsBack(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p := NewProblem()
	buildBoundedLP(p, r, 6, 4)
	want, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, bas *Basis) {
		t.Helper()
		ws := NewWorkspace()
		if _, err := p.SolveHotWith(ws, bas); !errors.Is(err, errBasisMismatch) {
			t.Fatalf("%s: hot start returned %v, want the layout error", name, err)
		}
		if bas := ws.ExportBasis(); bas != nil {
			t.Errorf("%s: failed hot start left a basis to export", name)
		}
		got, err := p.SolveWith(ws)
		if err == nil {
			got, err = p.PolishWith(ws)
		}
		if err != nil {
			t.Fatalf("%s: cold restart: %v", name, err)
		}
		if math.Abs(got.Obj-want.Obj) > 1e-9*(1+math.Abs(want.Obj)) {
			t.Errorf("%s: objective %v != cold %v", name, got.Obj, want.Obj)
		}
	}
	check("nil basis", nil)
	check("wrong nvars", &Basis{Status: make([]int8, 3+p.NumConstraints()), NVars: 3, NRows: p.NumConstraints()})
	check("wrong nrows", &Basis{Status: make([]int8, p.NumVars()+1), NVars: p.NumVars(), NRows: 1})
	check("short status", &Basis{Status: make([]int8, 2), NVars: p.NumVars(), NRows: p.NumConstraints()})
	bad := make([]int8, p.NumVars()+p.NumConstraints())
	for i := range bad {
		bad[i] = 99
	}
	check("garbage statuses", &Basis{Status: bad, NVars: p.NumVars(), NRows: p.NumConstraints()})
	// All-basic and all-nonbasic status vectors have the wrong basic count.
	allB := make([]int8, p.NumVars()+p.NumConstraints())
	for i := range allB {
		allB[i] = stBasic
	}
	check("all basic", &Basis{Status: allB, NVars: p.NumVars(), NRows: p.NumConstraints()})
	check("all nonbasic", &Basis{Status: make([]int8, p.NumVars()+p.NumConstraints()), NVars: p.NumVars(), NRows: p.NumConstraints()})
}

// TestSolveHotBasisFromDifferentStructure: a basis from an unrelated LP
// of coincidentally matching dimensions fits the layout, so the hot start
// must not reject it as a mismatch; it must land on the problem's optimum
// after PolishWith, or fail numerically and leave the workspace to a cold
// restart that does.
func TestSolveHotBasisFromDifferentStructure(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		a, b := NewProblem(), NewProblem()
		n, mrows := 3+r.Intn(5), 2+r.Intn(4)
		buildBoundedLP(a, r, n, mrows)
		buildBoundedLP(b, r, n, mrows)
		if a.NumConstraints() != b.NumConstraints() {
			continue
		}
		bas, err := polishedBasis(a, NewWorkspace())
		if err != nil {
			continue
		}
		cold, errC := b.Solve()
		hot, _, errH := solveHot(t, b, NewWorkspace(), bas)
		if (errH == nil) != (errC == nil) {
			t.Fatalf("seed %d: hot err=%v cold err=%v", seed, errH, errC)
		}
		if errC != nil {
			continue
		}
		if math.Abs(hot.Obj-cold.Obj) > 1e-9*(1+math.Abs(cold.Obj)) {
			t.Errorf("seed %d: objective hot %v != cold %v", seed, hot.Obj, cold.Obj)
		}
		checkFeasible(t, b, hot.X, seed)
	}
}

// TestSolveHotThenReSolve: the delta path appends cut rows after a hot
// start, so a hot solve must leave the workspace in the state ReSolveWith
// expects (solvedVars/solvedRows valid, no artificials) — whether the rows
// come at the hot start's perturbed optimum, as in the delta path's first
// cut round, or after a polish.
func TestSolveHotThenReSolve(t *testing.T) {
	for _, polishHot := range []bool{false, true} {
		r := rand.New(rand.NewSource(4)) // a seed whose perturbation stays feasible
		p := NewProblem()
		buildBoundedLP(p, r, 8, 5)
		bas, err := polishedBasis(p, NewWorkspace())
		if err != nil {
			t.Fatal(err)
		}

		edited := perturbNumbers(p, r, 1e-3)
		hws := NewWorkspace()
		hot, err := edited.SolveHotWith(hws, bas)
		if err != nil {
			t.Fatal(err)
		}
		if polishHot {
			if hot, err = edited.PolishWith(hws); err != nil {
				t.Fatal(err)
			}
		}
		// Append a row pinning x0 at its current optimal value — feasible
		// by construction (the hot optimum satisfies it), weakly binding —
		// and re-solve warm; differential against a cold solve. The dual
		// pivots themselves are exercised by TestReSolveWarmMatchesCold;
		// this test checks the workspace handoff hot start -> row-append
		// restart.
		edited.AddConstraint(LE, hot.X[0], Term{0, 1})
		warm, err := edited.ReSolveWith(hws)
		if err == nil {
			warm, err = edited.PolishWith(hws)
		}
		if err != nil {
			t.Fatalf("polish hot %v: %v", polishHot, err)
		}
		cold, err := edited.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(warm.Obj-cold.Obj) > 1e-9*(1+math.Abs(cold.Obj)) {
			t.Errorf("polish hot %v: resolve after hot start: objective warm %v != cold %v", polishHot, warm.Obj, cold.Obj)
		}
		checkFeasible(t, edited, warm.X, 4)
	}
}

// TestExportBasisInvalid: no solve, failed solve, or a phase-1 exit with
// artificials must yield a nil export.
func TestExportBasisInvalid(t *testing.T) {
	if bas := NewWorkspace().ExportBasis(); bas != nil {
		t.Error("fresh workspace exported a basis")
	}
	// Infeasible problem: x >= 1 and x <= 0.
	p := NewProblem()
	x := p.AddVar("x")
	p.AddConstraint(GE, 1, Term{x, 1})
	p.AddConstraint(LE, 0, Term{x, 1})
	ws := NewWorkspace()
	if _, err := p.SolveWith(ws); err == nil {
		t.Fatal("infeasible problem solved")
	}
	if bas := ws.ExportBasis(); bas != nil {
		t.Error("failed solve exported a basis")
	}
}

// TestSolveHotDeferPolish: the hot solve leaves the cost perturbation
// like SolveWith — perturbed answer first, near the true optimum, and
// exact after PolishWith.
func TestSolveHotDeferPolish(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	p := NewProblem()
	buildBoundedLP(p, r, 8, 6)
	bas, err := polishedBasis(p, NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	edited := perturbNumbers(p, r, 1e-3)
	cold, err := edited.Solve()
	if err != nil {
		t.Fatal(err)
	}
	hws := NewWorkspace()
	hot, err := edited.SolveHotWith(hws, bas)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(hot.Obj-cold.Obj) > 1e-6*(1+math.Abs(cold.Obj)) {
		t.Errorf("perturbed hot solve: objective %v far from cold %v", hot.Obj, cold.Obj)
	}
	polished, err := edited.PolishWith(hws)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(polished.Obj-cold.Obj) > 1e-9*(1+math.Abs(cold.Obj)) {
		t.Errorf("polished hot solve: objective %v != cold %v", polished.Obj, cold.Obj)
	}
}
