package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomBoundedLP builds a random feasible bounded LP (origin feasible, box
// constraints keep it bounded).
func randomBoundedLP(seed int64, n, mrows int) *Problem {
	r := rand.New(rand.NewSource(seed))
	p := NewProblem()
	buildRandomBoundedLP(p, r, n, mrows)
	return p
}

func buildRandomBoundedLP(p *Problem, r *rand.Rand, n, mrows int) {
	vars := make([]int, n)
	for i := range vars {
		vars[i] = p.AddVar("")
		p.SetObj(vars[i], r.NormFloat64())
	}
	for i := range vars {
		p.AddConstraint(LE, 1+9*r.Float64(), Term{vars[i], 1})
	}
	for k := 0; k < mrows; k++ {
		terms := make([]Term, n)
		for i := range vars {
			terms[i] = Term{vars[i], r.NormFloat64()}
		}
		p.AddConstraint(LE, 1+9*r.Float64(), terms...)
	}
	// A few GE/EQ rows exercise the artificial-variable machinery.
	p.AddConstraint(GE, 0.1, Term{vars[0], 1})
	p.AddConstraint(EQ, 0.5, Term{vars[n-1], 1})
}

// TestSolveWithMatchesSolve reuses one workspace across many different
// problems and checks that SolveWith then PolishWith there is identical
// to Solve on a fresh workspace: the reused workspace carries nothing
// from one solve to the next.
func TestSolveWithMatchesSolve(t *testing.T) {
	ws := NewWorkspace()
	for seed := int64(0); seed < 40; seed++ {
		n := 1 + int(seed%7)
		mrows := 1 + int(seed%5)
		p := randomBoundedLP(seed, n, mrows)
		fresh, errF := p.Solve()
		reused, errR := p.SolveWith(ws)
		if errR == nil {
			reused, errR = p.PolishWith(ws)
		}
		if (errF == nil) != (errR == nil) {
			t.Fatalf("seed %d: fresh err=%v reused err=%v", seed, errF, errR)
		}
		if errF != nil {
			continue
		}
		if fresh.Obj != reused.Obj {
			t.Errorf("seed %d: obj %v != %v", seed, fresh.Obj, reused.Obj)
		}
		for i := range fresh.X {
			if fresh.X[i] != reused.X[i] {
				t.Errorf("seed %d: x[%d] %v != %v", seed, i, fresh.X[i], reused.X[i])
			}
		}
		if fresh.Stats != reused.Stats {
			t.Errorf("seed %d: stats %+v != %+v", seed, fresh.Stats, reused.Stats)
		}
	}
}

// TestSolveWithNilWorkspace checks the nil workspace: SolveWith(nil)
// solves like Solve's first stage, to an optimum of the perturbed costs
// within the perturbation's reach of Solve's, and PolishWith(nil), which
// solves cold and polishes on a fresh workspace, is Solve exactly.
func TestSolveWithNilWorkspace(t *testing.T) {
	p := randomBoundedLP(7, 4, 3)
	a, err1 := p.Solve()
	b, err2 := p.SolveWith(nil)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Abs(a.Obj-b.Obj) > 1e-6*(1+math.Abs(a.Obj)) {
		t.Errorf("SolveWith(nil) obj %v far from Solve's %v", b.Obj, a.Obj)
	}
	c, err := p.PolishWith(nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Obj != c.Obj || a.Stats != c.Stats {
		t.Errorf("PolishWith(nil) obj %v, stats %+v != Solve's %v, %+v", c.Obj, c.Stats, a.Obj, a.Stats)
	}
}

// TestProblemResetReuse rebuilds the same problem after Reset and checks
// identical results plus retained capacity.
func TestProblemResetReuse(t *testing.T) {
	p := NewProblem()
	r := rand.New(rand.NewSource(3))
	buildRandomBoundedLP(p, r, 5, 4)
	want, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	wantObj := want.Obj
	for round := 0; round < 3; round++ {
		p.Reset()
		if p.NumVars() != 0 || p.NumConstraints() != 0 {
			t.Fatalf("Reset left %d vars, %d cons", p.NumVars(), p.NumConstraints())
		}
		r := rand.New(rand.NewSource(3)) // same seed: same problem
		buildRandomBoundedLP(p, r, 5, 4)
		got, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if got.Obj != wantObj {
			t.Errorf("round %d: obj %v, want %v", round, got.Obj, wantObj)
		}
	}
}

// TestSolutionAliasesWorkspace documents the aliasing contract: the next
// SolveWith overwrites a previously returned solution.
func TestSolutionAliasesWorkspace(t *testing.T) {
	ws := NewWorkspace()
	p1 := NewProblem()
	x := p1.AddVar("")
	p1.SetObj(x, 1)
	p1.AddConstraint(GE, 5, Term{x, 1})
	sol1, err := p1.SolveWith(ws)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol1.X[0]-5) > 1e-9 {
		t.Fatalf("x = %v, want 5", sol1.X[0])
	}
	p2 := NewProblem()
	y := p2.AddVar("")
	p2.SetObj(y, 1)
	p2.AddConstraint(GE, 7, Term{y, 1})
	if _, err := p2.SolveWith(ws); err != nil {
		t.Fatal(err)
	}
	if sol1.X[0] != 7 {
		t.Errorf("aliasing contract changed: sol1.X[0] = %v (expected overwrite to 7); update the docs", sol1.X[0])
	}
}

// TestSolveWithNearZeroAllocs verifies the headline property: re-solving
// and polishing a same-shaped problem through a warm workspace performs
// no allocation inside the solver.
func TestSolveWithNearZeroAllocs(t *testing.T) {
	p := randomBoundedLP(11, 6, 5)
	ws := NewWorkspace()
	solve := func() {
		if _, err := p.SolveWith(ws); err != nil {
			t.Fatal(err)
		}
		if _, err := p.PolishWith(ws); err != nil {
			t.Fatal(err)
		}
	}
	solve() // warm-up growth
	if allocs := testing.AllocsPerRun(20, solve); allocs > 0 {
		t.Errorf("warm SolveWith + PolishWith allocates %v objects per run, want 0", allocs)
	}
}
