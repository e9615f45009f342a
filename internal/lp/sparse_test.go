package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// buildBoundedLP constructs a random LP exercising the full bound
// machinery: positive lower bounds, finite upper bounds, fixed variables,
// plus LE/GE/EQ rows. The box keeps it feasible and bounded.
func buildBoundedLP(p *Problem, r *rand.Rand, n, mrows int) {
	for i := 0; i < n; i++ {
		v := p.AddVar("")
		p.SetObj(v, r.NormFloat64())
		switch r.Intn(4) {
		case 0: // default [0, +Inf) tightened by an explicit row below
			p.AddConstraint(LE, 1+9*r.Float64(), Term{v, 1})
		case 1: // positive lower bound
			lo := r.Float64()
			p.SetBounds(v, lo, lo+1+9*r.Float64())
		case 2: // box around zero is not expressible densely; stay >= 0
			p.SetBounds(v, 0, 1+9*r.Float64())
		case 3: // fixed variable
			x := r.Float64()
			p.SetBounds(v, x, x)
		}
	}
	for k := 0; k < mrows; k++ {
		terms := make([]Term, 0, n)
		for v := 0; v < n; v++ {
			if r.Float64() < 0.6 {
				terms = append(terms, Term{v, r.NormFloat64()})
			}
		}
		if len(terms) == 0 {
			continue
		}
		// Keep the all-lower-bounds point feasible: rhs above the row's
		// value there.
		val := 0.0
		for _, t := range terms {
			lo, _ := p.Bounds(t.Var)
			val += t.Coef * lo
		}
		p.AddConstraint(LE, val+r.Float64()*5, terms...)
	}
	// A few GE/EQ rows exercise the artificial machinery.
	lo0, _ := p.Bounds(0)
	p.AddConstraint(GE, lo0, Term{0, 1})
	if n > 1 {
		lo1, hi1 := p.Bounds(1)
		mid := lo1
		if !math.IsInf(hi1, 1) {
			mid = (lo1 + hi1) / 2
		}
		p.AddConstraint(EQ, mid, Term{1, 1})
	}
}

// TestSparseMatchesDenseRandom is the core differential test: on random
// bounded LPs the sparse revised simplex (SolveWith then PolishWith, on
// one reused workspace) and the dense tableau reference must agree on
// feasibility and on the optimal objective. Optimal solutions need not be
// unique, so X is checked for feasibility rather than equality.
func TestSparseMatchesDenseRandom(t *testing.T) {
	ws := NewWorkspace()
	dws := NewDenseWorkspace()
	agreed := 0
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := NewProblem()
		buildBoundedLP(p, r, 2+r.Intn(8), 1+r.Intn(8))
		sp, errS := p.SolveWith(ws)
		if errS == nil {
			sp, errS = p.PolishWith(ws)
		}
		dn, errD := p.SolveDenseWith(dws)
		if (errS == nil) != (errD == nil) {
			t.Fatalf("seed %d: sparse err=%v dense err=%v", seed, errS, errD)
		}
		if errS != nil {
			if !errors.Is(errS, ErrInfeasible) && !errors.Is(errD, ErrInfeasible) {
				t.Fatalf("seed %d: unexpected error pair: %v / %v", seed, errS, errD)
			}
			continue
		}
		tol := 1e-6 * (1 + math.Abs(dn.Obj))
		if math.Abs(sp.Obj-dn.Obj) > tol {
			t.Errorf("seed %d: objective sparse %v != dense %v", seed, sp.Obj, dn.Obj)
		}
		checkFeasible(t, p, sp.X, seed)
		agreed++
	}
	if agreed < 200 {
		t.Fatalf("only %d/300 seeds produced solvable instances; generator broken", agreed)
	}
}

// checkFeasible verifies x against every constraint and bound of p.
func checkFeasible(t *testing.T, p *Problem, x []float64, seed int64) {
	t.Helper()
	const eps = 1e-6
	for v := 0; v < p.NumVars(); v++ {
		lo, hi := p.Bounds(v)
		if x[v] < lo-eps*(1+math.Abs(lo)) || x[v] > hi+eps*(1+math.Abs(hi)) {
			t.Errorf("seed %d: x[%d]=%v outside [%v, %v]", seed, v, x[v], lo, hi)
		}
	}
	for ci, c := range p.cons {
		lhs := 0.0
		for _, tm := range c.terms {
			lhs += tm.Coef * x[tm.Var]
		}
		scale := eps * (1 + math.Abs(c.rhs))
		switch c.sense {
		case LE:
			if lhs > c.rhs+scale {
				t.Errorf("seed %d: row %d: %v <= %v violated", seed, ci, lhs, c.rhs)
			}
		case GE:
			if lhs < c.rhs-scale {
				t.Errorf("seed %d: row %d: %v >= %v violated", seed, ci, lhs, c.rhs)
			}
		case EQ:
			if math.Abs(lhs-c.rhs) > scale {
				t.Errorf("seed %d: row %d: %v = %v violated", seed, ci, lhs, c.rhs)
			}
		}
	}
}

// TestBoundsBasics pins the bound semantics on hand-checkable programs.
func TestBoundsBasics(t *testing.T) {
	// min x with x in [2, 5]: optimum 2, no constraint rows at all.
	p := NewProblem()
	x := p.AddVar("x")
	p.SetObj(x, 1)
	p.SetBounds(x, 2, 5)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[x]-2) > 1e-9 || math.Abs(sol.Obj-2) > 1e-9 {
		t.Errorf("min over box: got x=%v obj=%v, want 2", sol.X[x], sol.Obj)
	}

	// max x (min -x) with x in [2, 5]: bound flip to the upper bound.
	p2 := NewProblem()
	y := p2.AddVar("y")
	p2.SetObj(y, -1)
	p2.SetBounds(y, 2, 5)
	sol, err = p2.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[y]-5) > 1e-9 {
		t.Errorf("max over box: got %v, want 5", sol.X[y])
	}

	// Fixed variable propagates through a row: x=3 fixed, min y, y >= x.
	p3 := NewProblem()
	a := p3.AddVar("")
	b := p3.AddVar("")
	p3.SetBounds(a, 3, 3)
	p3.SetObj(b, 1)
	p3.AddConstraint(GE, 0, Term{b, 1}, Term{a, -1})
	sol, err = p3.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[b]-3) > 1e-8 {
		t.Errorf("fixed-variable row: got y=%v, want 3", sol.X[b])
	}

	// Bounds above the feasible row region: infeasible.
	p4 := NewProblem()
	z := p4.AddVar("")
	p4.SetBounds(z, 4, 10)
	p4.AddConstraint(LE, 2, Term{z, 1})
	if _, err := p4.Solve(); !errors.Is(err, ErrInfeasible) {
		t.Errorf("want ErrInfeasible, got %v", err)
	}

	// Unbounded below the objective despite a lower bound elsewhere.
	p5 := NewProblem()
	u := p5.AddVar("")
	p5.SetObj(u, -1) // maximise with hi = +Inf
	p5.SetBounds(u, 1, math.Inf(1))
	if _, err := p5.Solve(); !errors.Is(err, ErrUnbounded) {
		t.Errorf("want ErrUnbounded, got %v", err)
	}
}

// TestReSolveWarmMatchesCold appends rows after an initial solve and
// checks the dual warm restart lands on the same optimum as a cold solve
// of the extended problem, from both of the states the cut loop restarts
// from: a perturbed optimum (the restart re-perturbs the grown model and
// PolishWith makes it exact) and a polished one (the restart runs on the
// exact costs, as after a polish that exposed a violated line).
func TestReSolveWarmMatchesCold(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		for _, polishFirst := range []bool{false, true} {
			r := rand.New(rand.NewSource(1000 + seed))
			n := 3 + r.Intn(6)
			p := NewProblem()
			vars := make([]int, n)
			for i := range vars {
				vars[i] = p.AddVar("")
				p.SetObj(vars[i], 1+r.Float64()) // positive costs keep it bounded
				p.SetBounds(vars[i], 0, 10)
			}
			for k := 0; k < n; k++ {
				p.AddConstraint(GE, 1+4*r.Float64(), Term{vars[r.Intn(n)], 1}, Term{vars[r.Intn(n)], 1})
			}
			ws := NewWorkspace()
			if _, err := p.SolveWith(ws); err != nil {
				t.Fatalf("seed %d: initial solve: %v", seed, err)
			}
			if polishFirst {
				if _, err := p.PolishWith(ws); err != nil {
					t.Fatalf("seed %d: initial polish: %v", seed, err)
				}
			}
			if ws.perturbed == polishFirst {
				t.Fatalf("seed %d: perturbed=%v after polish=%v", seed, ws.perturbed, polishFirst)
			}
			// Append violated rows (they tighten the optimum).
			extra := 1 + r.Intn(4)
			for k := 0; k < extra; k++ {
				p.AddConstraint(GE, 3+5*r.Float64(), Term{vars[r.Intn(n)], 1}, Term{vars[r.Intn(n)], 1})
			}
			warm, errW := p.ReSolveWith(ws)
			if errW == nil && ws.perturbed == polishFirst {
				t.Errorf("seed %d: restart left perturbed=%v after polish=%v", seed, ws.perturbed, polishFirst)
			}
			if errW == nil && !polishFirst {
				warm, errW = p.PolishWith(ws)
			}
			cold, errC := p.Solve()
			if (errW == nil) != (errC == nil) {
				t.Fatalf("seed %d, polish first %v: warm err=%v cold err=%v", seed, polishFirst, errW, errC)
			}
			if errW != nil {
				continue
			}
			if math.Abs(warm.Obj-cold.Obj) > 1e-9*(1+math.Abs(cold.Obj)) {
				t.Errorf("seed %d, polish first %v: warm obj %v != cold obj %v", seed, polishFirst, warm.Obj, cold.Obj)
			}
			checkFeasible(t, p, warm.X, seed)
		}
	}
}

// TestForcedRefactorization solves and polishes random LPs with the eta
// file capped at one update — a refactorization after every pivot, the
// polish's pivots included — and checks the results match the default
// configuration, exercising the LU rebuild and basic-value recomputation
// paths densely.
func TestForcedRefactorization(t *testing.T) {
	tight := NewWorkspace()
	tight.refactorEvery = 1
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(2000 + seed))
		p := NewProblem()
		buildBoundedLP(p, r, 2+r.Intn(7), 1+r.Intn(6))
		a, errA := p.Solve()
		b, errB := p.SolveWith(tight)
		if errB == nil {
			b, errB = p.PolishWith(tight)
		}
		if (errA == nil) != (errB == nil) {
			t.Fatalf("seed %d: default err=%v refactor-every-pivot err=%v", seed, errA, errB)
		}
		if errA != nil {
			continue
		}
		if math.Abs(a.Obj-b.Obj) > 1e-6*(1+math.Abs(a.Obj)) {
			t.Errorf("seed %d: obj %v != %v under forced refactorization", seed, a.Obj, b.Obj)
		}
		if b.Stats.Factorizations < b.Stats.Phase1Iters+b.Stats.Phase2Iters {
			t.Errorf("seed %d: expected a factorization per pivot, got %d for %d pivots",
				seed, b.Stats.Factorizations, b.Stats.Phase1Iters+b.Stats.Phase2Iters)
		}
	}
}

// TestDeferPolishMatchesDirect checks the deferred-perturbation protocol
// on one workspace reused across problems: SolveWith returns an optimum of
// the perturbed costs, near the true one, and PolishWith then lands on
// the exact optimum Solve produces.
func TestDeferPolishMatchesDirect(t *testing.T) {
	ws := NewWorkspace()
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(3000 + seed))
		p := NewProblem()
		buildBoundedLP(p, r, 2+r.Intn(7), 1+r.Intn(6))
		direct, errD := p.Solve()
		deferred, errS := p.SolveWith(ws)
		if (errS == nil) != (errD == nil) {
			t.Fatalf("seed %d: deferred err=%v direct err=%v", seed, errS, errD)
		}
		if errD != nil {
			continue
		}
		if math.Abs(deferred.Obj-direct.Obj) > 1e-6*(1+math.Abs(direct.Obj)) {
			t.Errorf("seed %d: perturbed obj %v far from direct %v", seed, deferred.Obj, direct.Obj)
		}
		polished, err := p.PolishWith(ws)
		if err != nil {
			t.Fatalf("seed %d: polish: %v", seed, err)
		}
		if math.Abs(polished.Obj-direct.Obj) > 1e-7*(1+math.Abs(direct.Obj)) {
			t.Errorf("seed %d: polished obj %v != direct %v", seed, polished.Obj, direct.Obj)
		}
	}
}

// TestDenseRejectsNegativeLowerBound documents the reference solver's
// limitation that motivates keeping it a reference only.
func TestDenseRejectsNegativeLowerBound(t *testing.T) {
	p := NewProblem()
	v := p.AddVar("")
	p.SetBounds(v, -1, 1)
	if _, err := p.SolveDense(); !errors.Is(err, ErrDenseBounds) {
		t.Errorf("want ErrDenseBounds, got %v", err)
	}
	// The sparse solver handles it.
	p.SetObj(v, 1)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.X[v]+1) > 1e-9 {
		t.Errorf("negative lower bound: got %v, want -1", sol.X[v])
	}
}
