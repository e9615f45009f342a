package allot

import (
	"fmt"

	"malsched/internal/lp"
)

// SolveLP10 solves the alternative linear programming relaxation (10) of
// the paper's Remark in Section 3.1: the "straightforward" scheduling LP
// with assignment variables x_{j,l} (the fraction of task j notionally run
// on l processors),
//
//	min C
//	s.t. C_i + sum_l x_{j,l} p_j(l) <= C_j   for all arcs (i,j)
//	     C_j <= C
//	     sum_j sum_l x_{j,l} l p_j(l) <= m C
//	     sum_l x_{j,l} = 1,  x_{j,l} >= 0.
//
// The paper proves (7) (equivalently (9)) and (10) have equal optima under
// Theorem 2.2; this implementation exists to verify that equivalence
// computationally (see TestLP9EquivalentToLP10) and as an ablation of the
// formulation choice: (10) has n*m assignment columns versus (9)'s n work
// columns plus n*(m-1) supporting-line rows.
func SolveLP10(in *Instance) (*Fractional, error) {
	return SolveLP10With(in, nil)
}

// SolveLP10With is SolveLP10 with a reusable workspace (a nil ws solves
// with fresh buffers): the LP problem, simplex buffers, task frontiers,
// per-task variable offsets and the wide-row term buffer all live in ws,
// mirroring SolveLPWith's amortised-allocation discipline.
func SolveLP10With(in *Instance, ws *Workspace) (*Fractional, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	n := in.G.N()
	fronts := ws.frontiers(in)

	// Deterministic variable layout: C_j = j, then one contiguous block of
	// assignment variables per task starting at offs[j] (one per frontier
	// breakpoint — dominated allotments can never appear with positive
	// weight in an optimal solution: they are slower AND costlier, so
	// restricting to the frontier is exact), then C last.
	p := ws.problem()
	for j := 0; j < n; j++ {
		p.AddVar("")
	}
	offs := growInt32(ws.offs, n+1)
	ws.offs = offs
	for j := 0; j < n; j++ {
		offs[j] = int32(p.NumVars())
		for range fronts[j].L {
			v := p.AddVar("")
			p.SetBounds(v, 0, 1) // implied by the convexity row; free for the solver
		}
	}
	offs[n] = int32(p.NumVars())
	vC := p.AddVar("C")
	p.SetObj(vC, 1)

	for j := 0; j < n; j++ {
		f := fronts[j]
		base := int(offs[j])
		// Convexity row: sum_l x_{j,l} = 1.
		terms := ws.termBuf(len(f.L) + 2)
		for k := range f.L {
			terms = append(terms, lp.Term{Var: base + k, Coef: 1})
		}
		p.AddConstraint(lp.EQ, 1, terms...)
		// Completion after own (fractional) processing time, needed for
		// source tasks: sum_l x_{j,l} p_j(l) <= C_j.
		terms = terms[:0]
		for k := range f.L {
			terms = append(terms, lp.Term{Var: base + k, Coef: f.X[k]})
		}
		terms = append(terms, lp.Term{Var: j, Coef: -1})
		p.AddConstraint(lp.LE, 0, terms...)
		// C_j <= C.
		p.AddConstraint(lp.LE, 0, lp.Term{Var: j, Coef: 1}, lp.Term{Var: vC, Coef: -1})
	}
	// Precedence: C_i + sum_l x_{j,l} p_j(l) <= C_j.
	for _, e := range in.G.Edges() {
		i, j := e[0], e[1]
		f := fronts[j]
		base := int(offs[j])
		terms := ws.termBuf(len(f.L) + 2)
		terms = append(terms, lp.Term{Var: i, Coef: 1}, lp.Term{Var: j, Coef: -1})
		for k := range f.L {
			terms = append(terms, lp.Term{Var: base + k, Coef: f.X[k]})
		}
		p.AddConstraint(lp.LE, 0, terms...)
	}
	// Total work: sum_j sum_l x_{j,l} * l p_j(l) <= m C.
	workTerms := ws.termBuf(int(offs[n]) - n + 1)
	for j := 0; j < n; j++ {
		f := fronts[j]
		base := int(offs[j])
		for k := range f.L {
			workTerms = append(workTerms, lp.Term{Var: base + k, Coef: f.W[k]})
		}
	}
	workTerms = append(workTerms, lp.Term{Var: vC, Coef: -float64(in.M)})
	p.AddConstraint(lp.LE, 0, workTerms...)

	// One solve, so its perturbed optimum is polished right away.
	sol, err := p.SolveWith(&ws.LP)
	if err == nil {
		sol, err = p.PolishWith(&ws.LP)
	}
	if err != nil {
		return nil, fmt.Errorf("allot: LP (10) failed: %w", err)
	}

	out := &Fractional{
		X:     make([]float64, n),
		Wbar:  make([]float64, n),
		LStar: make([]float64, n),
		C:     sol.Obj,
	}
	for j := 0; j < n; j++ {
		f := fronts[j]
		base := int(offs[j])
		x := 0.0
		for k := range f.L {
			x += sol.X[base+k] * f.X[k]
		}
		out.X[j] = clamp(x, f.XMin(), f.XMax())
		// The assignment mix's work is >= the convex envelope w_j(x);
		// report the envelope value for comparability with SolveLP (the
		// optimum uses adjacent breakpoints, where they coincide).
		out.Wbar[j] = f.WorkAt(out.X[j])
		out.W += out.Wbar[j]
		out.LStar[j] = f.FractionalAlloc(out.X[j])
		if c := sol.X[j]; c > out.L {
			out.L = c
		}
	}
	return out, nil
}
