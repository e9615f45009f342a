package allot

import (
	"fmt"

	"malsched/internal/lp"
)

// SolveLPReference solves LP (9) exactly the way the pre-sparse
// implementation did: the full model is materialised up front — explicit
// domain rows p_j(m) <= x_j <= p_j(1), completion and L-cap rows for
// every task, and all Θ(n·m) supporting-line rows of Eq. (8) — and handed
// to the dense two-phase tableau solver (lp.SolveDense). It is the
// differential-testing oracle for SolveLPWith, in the same spirit as
// listsched.RunReference for the phase-2 scheduler: both formulations
// must agree on the optimum C* to within numerical tolerance on every
// instance (the optimal vertex itself need not be unique, so only the
// objective is pinned). The dense tableau is O((rows+cols)^2) memory, so
// this stays a small-instance tool.
func SolveLPReference(in *Instance) (*Fractional, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := in.G.N()
	fronts := in.Frontiers()

	// Same deterministic variable layout as SolveLPWith:
	// C_j = j, x_j = n+j, wbar_j = 2n+j, L = 3n, C = 3n+1.
	p := lp.NewProblem()
	for j := 0; j < 3*n+2; j++ {
		p.AddVar("")
	}
	cj := func(j int) int { return j }
	xj := func(j int) int { return n + j }
	wj := func(j int) int { return 2*n + j }
	vL := 3 * n
	vC := 3*n + 1
	p.SetObj(vC, 1)

	for j := 0; j < n; j++ {
		f := fronts[j]
		// Domain of the processing time: p_j(m) <= x_j <= p_j(1).
		p.AddConstraint(lp.GE, f.XMin(), lp.Term{Var: xj(j), Coef: 1})
		p.AddConstraint(lp.LE, f.XMax(), lp.Term{Var: xj(j), Coef: 1})
		// Completion ordering: x_j <= C_j (valid for every task and required
		// for sources, which have no precedence row), C_j <= L.
		p.AddConstraint(lp.LE, 0, lp.Term{Var: xj(j), Coef: 1}, lp.Term{Var: cj(j), Coef: -1})
		p.AddConstraint(lp.LE, 0, lp.Term{Var: cj(j), Coef: 1}, lp.Term{Var: vL, Coef: -1})
		// Work linearisation (Eq. (8)): one supporting line per segment.
		for s := 0; s < f.Segments(); s++ {
			slope, intercept := lineCoefs(&f, s)
			p.AddConstraint(lp.LE, -intercept,
				lp.Term{Var: xj(j), Coef: slope}, lp.Term{Var: wj(j), Coef: -1})
		}
		if f.Segments() == 0 {
			// Degenerate frontier: the work is the constant W(l_min).
			p.AddConstraint(lp.GE, f.W[0], lp.Term{Var: wj(j), Coef: 1})
		}
	}
	// Precedence: C_i + x_j <= C_j for every arc (i, j).
	for _, e := range in.G.Edges() {
		p.AddConstraint(lp.LE, 0,
			lp.Term{Var: cj(e[0]), Coef: 1},
			lp.Term{Var: xj(e[1]), Coef: 1},
			lp.Term{Var: cj(e[1]), Coef: -1})
	}
	// L <= C and total work W/m <= C.
	p.AddConstraint(lp.LE, 0, lp.Term{Var: vL, Coef: 1}, lp.Term{Var: vC, Coef: -1})
	workTerms := make([]lp.Term, 0, n+1)
	for j := 0; j < n; j++ {
		workTerms = append(workTerms, lp.Term{Var: wj(j), Coef: 1 / float64(in.M)})
	}
	workTerms = append(workTerms, lp.Term{Var: vC, Coef: -1})
	p.AddConstraint(lp.LE, 0, workTerms...)

	sol, err := p.SolveDense()
	if err != nil {
		return nil, fmt.Errorf("allot: reference LP (9) failed: %w", err)
	}

	out := &Fractional{
		X:     make([]float64, n),
		Wbar:  make([]float64, n),
		LStar: make([]float64, n),
		C:     sol.Obj,
		L:     sol.X[vL],
	}
	for j := 0; j < n; j++ {
		out.X[j] = clamp(sol.X[xj(j)], fronts[j].XMin(), fronts[j].XMax())
		out.Wbar[j] = fronts[j].WorkAt(out.X[j])
		out.W += out.Wbar[j]
		out.LStar[j] = fronts[j].FractionalAlloc(out.X[j])
	}
	return out, nil
}
