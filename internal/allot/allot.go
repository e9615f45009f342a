// Package allot implements the first phase of the Jansen–Zhang two-phase
// algorithm (Section 3.1 of the paper): it formulates the allotment problem
// as the linear program (9), solves it with the sparse revised simplex from
// internal/lp, extracts the fractional processing times x*_j together with
// the LP lower bound C* >= max{L*, W*/m}, and rounds the fractional solution
// with parameter rho into an integral allotment alpha'.
//
// The LP is built on the efficient frontier of each task, so the convexity
// of the work function in the processing time (Theorem 2.2) turns the
// piecewise linear program (7) into the ordinary linear program (9): for
// every frontier segment l the supporting line
//
//	[(l+1)p(l+1) - l p(l)]/[p(l+1) - p(l)] * x_j
//	  - p(l)p(l+1)/[p(l+1) - p(l)]  <=  wbar_j
//
// lower-bounds the work variable wbar_j. Materialising all Θ(n·m) of those
// rows up front is what made large instances unreachable, so SolveLPWith
// generates them lazily: the model starts with just the two endpoint lines
// per task (plus implicit variable bounds standing in for the 2n domain
// rows), and after each solve the most violated missing lines of every
// task are added in one serial scan, and the LP is re-solved warm via a
// dual-simplex restart from the previous basis. Convexity makes each
// round's cuts valid for the full LP and every round adds at least one
// new row, so the loop terminates — the same monotone-iteration
// discipline Esparza–Kiefer–Luttenberger use for least-fixed-point
// systems — and in practice a handful of cuts per task suffice. On DAGs
// wide enough for their size and machine count (UseMincut) SolveLPWith
// instead routes to the parametric min-cut sweep (mincut.go), which
// solves the same relaxation without a simplex. SolveLPReference
// (reference.go) retains the full dense build as the tests' differential
// oracle for both.
package allot

import (
	"fmt"
	"math"

	"malsched/internal/dag"
	"malsched/internal/lp"
	"malsched/internal/malleable"
)

// Instance couples the precedence graph with the malleable tasks and the
// machine size. Tasks[j] corresponds to vertex j of G.
type Instance struct {
	G     *dag.DAG
	Tasks []malleable.Task
	M     int
}

// Validate checks the instance is well-formed and every task satisfies the
// model assumptions on m processors, and that its total work at full
// allotment, the sum of m·p_j(m), is finite. Assumption 2 makes work
// non-decreasing in the allotment, so that sum bounds every task's work
// and every schedule's length: past it, makespans and bounds overflow to
// +Inf.
func (in *Instance) Validate() error {
	if in.M < 1 {
		return fmt.Errorf("allot: machine size %d < 1", in.M)
	}
	if in.G.N() != len(in.Tasks) {
		return fmt.Errorf("allot: %d tasks for %d vertices", len(in.Tasks), in.G.N())
	}
	if err := in.G.Validate(); err != nil {
		return err
	}
	work := 0.0
	for j, t := range in.Tasks {
		if err := t.Validate(in.M); err != nil {
			return fmt.Errorf("task %d (%s): %w", j, t.Name, err)
		}
		work += t.Work(in.M)
	}
	if math.IsInf(work, 1) {
		return fmt.Errorf("allot: total work at full allotment (sum of m·p_j(m)) exceeds the float64 limit %g", math.MaxFloat64)
	}
	return nil
}

// Frontiers computes the efficient frontier of every task on m processors.
func (in *Instance) Frontiers() []malleable.Frontier {
	fs := make([]malleable.Frontier, len(in.Tasks))
	for j, t := range in.Tasks {
		fs[j] = malleable.NewFrontier(t, in.M)
	}
	return fs
}

// Formulation names one of the interchangeable solve paths for LP (9).
// Both optimise the same slope-representative relaxation and agree on the
// optimum to the cut tolerance; they differ in machinery and in which
// instance shapes they are fast on.
type Formulation string

const (
	// FormulationLazy: sparse simplex with lazy supporting-line cuts
	// and dual-simplex warm restarts (this file).
	FormulationLazy Formulation = "lazy"
	// FormulationMincut: Fulkerson's parametric min-cut sweep on the
	// project-crashing network (mincut.go + internal/flow).
	FormulationMincut Formulation = "mincut"
)

// Fractional is the optimal solution of LP (9).
type Fractional struct {
	X     []float64 // x*_j: fractional processing times
	Wbar  []float64 // wbar_j: work of task j in the LP optimum
	C     float64   // C*: LP optimum, a lower bound on OPT (Eq. 11)
	L     float64   // L*: fractional critical-path length
	W     float64   // W*: fractional total work
	LStar []float64 // l*_j = w_j(x*_j)/x*_j (Eq. 12)
	// Formulation records the engine that solved it (none for the oracle).
	Formulation Formulation
	// Cuts and Rounds are per-formulation solve-effort diagnostics: on
	// the lazy path, supporting-line rows generated beyond the two
	// endpoint seeds and dual-simplex warm restarts; on the mincut
	// path, parametric breakpoints and warm augmenting paths.
	Cuts, Rounds int
}

// cutEps is the relative supporting-line violation below which a task
// counts as satisfied in the lazy cut loop. It sits well above the
// simplex feasibility tolerance (1e-9) and well below the differential
// test tolerance (1e-6 relative).
const cutEps = 1e-8

// SolveLP builds and solves LP (9) for the instance. The returned C
// satisfies max{L, W/m} <= C <= OPT.
func SolveLP(in *Instance) (*Fractional, error) {
	return SolveLPWith(in, nil)
}

// lineCoefs returns the slope and intercept of segment s of frontier f:
// the supporting line of Eq. (8) with w >= slope*x + intercept on it.
// The products whi·lo and wlo·hi overflow once times pass about 1e154;
// there the intercept is read off the line at hi instead, which cannot
// overflow (every other instance keeps the first form's rounding).
func lineCoefs(f *malleable.Frontier, s int) (slope, intercept float64) {
	hi, lo := f.X[s], f.X[s+1] // p(l) > p(l+1)
	whi, wlo := f.W[s], f.W[s+1]
	den := lo - hi // negative
	slope, intercept = (wlo-whi)/den, (whi*lo-wlo*hi)/den
	if math.IsNaN(intercept) || math.IsInf(intercept, 0) {
		intercept = whi - slope*hi
	}
	return slope, intercept
}

// addCut appends the supporting-line row of segment s of task j:
// slope*x_j + intercept <= wbar_j  <=>  slope*x_j - wbar_j <= -intercept.
func addCut(p *lp.Problem, f *malleable.Frontier, j, s, n int) {
	slope, intercept := lineCoefs(f, s)
	p.AddConstraint(lp.LE, -intercept,
		lp.Term{Var: n + j, Coef: slope}, lp.Term{Var: 2*n + j, Coef: -1})
}

// SolveLPWith is SolveLP with a reusable workspace (a nil ws solves with
// fresh buffers). The simplex workspace, LP problem, task frontiers and
// cut bookkeeping all live in ws and are reused across calls, so repeated
// solves on same-shaped instances allocate almost nothing beyond the
// returned Fractional. UseMincut picks the formulation by the DAG's
// width; SolveLPFormulation pins one.
func SolveLPWith(in *Instance, ws *Workspace) (*Fractional, error) {
	return SolveLPFormulation(in, ws, "")
}

// SolveLPFormulation is SolveLPWith on the formulation f: lazy or mincut
// pins that engine, "" lets UseMincut pick by the DAG's width, and any
// other name is an error. The pin is an argument, not workspace state, so
// a pooled workspace carries no choice of engine from one solve to the
// next.
func SolveLPFormulation(in *Instance, ws *Workspace, f Formulation) (*Fractional, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if ws == nil {
		ws = NewWorkspace()
	}
	n := in.G.N()
	fronts := ws.frontiers(in)
	ws.lastLazyN = 0 // only a completed lazy solve leaves capture state

	// Route between the formulations. A pinned formulation short-circuits;
	// otherwise UseMincut decides by the DAG's width: wide instances go
	// to the parametric sweep (mincut.go) and deep ones stay on the
	// lazy-cut loop below.
	switch f {
	case FormulationMincut:
		return solveLPMincut(in, ws, fronts)
	case FormulationLazy:
		// fall through to the lazy-cut loop
	case "":
		if UseMincut(n, in.M, ws.chains.Depth(in.G)) {
			return solveLPMincut(in, ws, fronts)
		}
	default:
		return nil, fmt.Errorf("allot: unknown formulation %q", f)
	}

	p := ws.buildBaseLP(in, fronts)

	// Seed cuts: the two endpoint supporting lines of every task tie wbar_j
	// to the work function at both extremes of the domain (the steep end
	// uses the last representative segment).
	for j := 0; j < n; j++ {
		f := &fronts[j]
		segs := f.Segments()
		if segs < 1 {
			continue
		}
		base := int(ws.segOff[j])
		ws.logCut(p, f, j, 0, n)
		for s := segs - 1; s > 0; s-- {
			if ws.segRep[base+s] {
				ws.logCut(p, f, j, s, n)
				break
			}
		}
	}

	// The LP is massively degenerate, so the solver runs cost-perturbed
	// throughout the cut loop (intermediate solutions only steer cut
	// selection) and the perturbation is polished away once, at the end.
	ws.LP.DeferPolish = true
	sol, err := p.SolveWith(&ws.LP)
	if err != nil {
		return nil, fmt.Errorf("allot: LP (9) failed: %w", err)
	}
	sol, cuts, rounds, err := ws.runCutLoop(p, fronts, sol, in.M)
	if err != nil {
		return nil, err
	}
	ws.lastLazyN = n
	return ws.extractFractional(sol, fronts, cuts, rounds), nil
}

// buildBaseLP constructs the static part of LP (9) — variables, implicit
// bounds, crash bounds, precedence/L/total-work rows — into the
// workspace's reusable problem, resets the lazy-cut bookkeeping and the
// cut replay log, and returns the problem ready for cut seeding
// (SolveLPWith) or cut replay (SolveLPDeltaWith). The construction order
// is deterministic and depends only on the instance's structure — task
// count, machine size and DAG shape — never on the processing-time
// values, which is what makes row/column positions transplantable between
// structurally identical instances.
func (ws *Workspace) buildBaseLP(in *Instance, fronts []malleable.Frontier) *lp.Problem {
	n := in.G.N()
	ws.lastLazyN = 0
	ws.cutLog = ws.cutLog[:0]

	// Variables: completion C_j, processing x_j, work wbar_j for each task,
	// plus the critical-path length L and makespan C. AddVar assigns
	// indices sequentially, so the layout is deterministic:
	// C_j = j, x_j = n+j, wbar_j = 2n+j, L = 3n, C = 3n+1.
	p := ws.problem()
	for j := 0; j < 3*n+2; j++ {
		p.AddVar("")
	}
	cj := func(j int) int { return j }
	xj := func(j int) int { return n + j }
	wj := func(j int) int { return 2*n + j }
	vL := 3 * n
	vC := 3*n + 1
	p.SetObj(vC, 1)

	// Implicit bounds carry what used to be 3n constraint rows: the domain
	// p_j(m) <= x_j <= p_j(1) of every processing time, and the work floor
	// wbar_j >= W_j(1) = min_x w_j(x) (a valid inequality for LP (9), and
	// the whole constraint for a degenerate single-point frontier).
	totalSegs := 0
	ws.segOff = growInt32(ws.segOff, n+1)
	for j := 0; j < n; j++ {
		f := &fronts[j]
		p.SetBounds(xj(j), f.XMin(), f.XMax())
		p.SetBounds(wj(j), f.W[0], math.Inf(1))
		ws.segOff[j] = int32(totalSegs)
		totalSegs += f.Segments()
	}
	ws.segOff[n] = int32(totalSegs)
	ws.segAdded = growBool(ws.segAdded, totalSegs)
	ws.segRep = growBool(ws.segRep, totalSegs)
	for i := range ws.segAdded {
		ws.segAdded[i] = false
	}
	// Cut generation is restricted to slope-representative segments: on
	// large machines adjacent frontier segments become nearly collinear,
	// and two such supporting lines active at the same breakpoint form a
	// 2x2 block with determinant ~ their slope gap — a numerically
	// singular basis in the making. Chains of segments whose slopes agree
	// to 1e-6 relative collapse onto their first member; the skipped
	// lines sit below the representative's by at most the slope gap times
	// the chain width, far inside the cut tolerance.
	for j := 0; j < n; j++ {
		f := &fronts[j]
		base := int(ws.segOff[j])
		lastRep := math.Inf(-1)
		for s := 0; s < f.Segments(); s++ {
			slope, _ := lineCoefs(f, s)
			rep := s == 0 || math.Abs(slope-lastRep) > 1e-6*(1+math.Abs(slope))
			ws.segRep[base+s] = rep
			if rep {
				lastRep = slope
			}
		}
	}

	// Crash bounds (applyCrashBounds): every completion is lower-bounded
	// by the longest path (at the all-minimal processing times XMin)
	// ending at the task, L by the largest of those and C by
	// max{Lmin, sum of work floors / m}. These are implied inequalities —
	// every feasible point already satisfies them, so the polytope (and
	// the optimum) is untouched — but starting the nonbasic completions
	// AT them makes the initial all-lower-bound point satisfy every
	// precedence row outright: the phase-1 artificials collapse from one
	// per precedence row to the handful of rows (seed cuts, total work)
	// that are genuinely violated, and with them thousands of phase-1
	// pivots.
	ws.applyCrashBounds(p, in, fronts, cj, vL, vC, workFloorMin(fronts))

	// Static rows. Completion ordering and the L cap are only needed where
	// the DAG does not imply them transitively: x_j <= C_j for sources
	// (elsewhere C_i >= 0 and the precedence row imply it) and C_j <= L for
	// sinks (elsewhere it follows along any path to a sink since x >= 0).
	for j := 0; j < n; j++ {
		if len(in.G.Preds(j)) == 0 {
			p.AddConstraint(lp.LE, 0, lp.Term{Var: xj(j), Coef: 1}, lp.Term{Var: cj(j), Coef: -1})
		}
		if len(in.G.Succs(j)) == 0 {
			p.AddConstraint(lp.LE, 0, lp.Term{Var: cj(j), Coef: 1}, lp.Term{Var: vL, Coef: -1})
		}
	}
	// Precedence: C_i + x_j <= C_j for every arc (i, j) — except along
	// linear chains (internal/prep ChainNext), whose k link rows collapse
	// to the single row C_v0 + sum_i x_vi <= C_vk: the interior
	// completions appear in no other row, so eliminating them changes
	// neither the feasible x-space nor the optimum, and drops k-1 rows
	// and as many basic variables per chain.
	ws.chainLinks(in.G)
	for v := 0; v < n; v++ {
		if ws.chainNext[v] >= 0 && !ws.linkInto[v] {
			// Head of a maximal chain: walk it and emit the collapsed row.
			terms := ws.termBuf(4)
			terms = append(terms, lp.Term{Var: cj(v), Coef: 1})
			t := v
			for ws.chainNext[t] >= 0 {
				t = int(ws.chainNext[t])
				terms = append(terms, lp.Term{Var: xj(t), Coef: 1})
			}
			terms = append(terms, lp.Term{Var: cj(t), Coef: -1})
			p.AddConstraint(lp.LE, 0, terms...)
		}
		for _, s := range in.G.Succs(v) {
			if int(ws.chainNext[v]) == s {
				continue // chain link: covered by its collapsed row
			}
			p.AddConstraint(lp.LE, 0,
				lp.Term{Var: cj(v), Coef: 1},
				lp.Term{Var: xj(s), Coef: 1},
				lp.Term{Var: cj(s), Coef: -1})
		}
	}
	// L <= C and total work W/m <= C (the one dense row of the model).
	p.AddConstraint(lp.LE, 0, lp.Term{Var: vL, Coef: 1}, lp.Term{Var: vC, Coef: -1})
	workTerms := ws.termBuf(n + 1)
	for j := 0; j < n; j++ {
		workTerms = append(workTerms, lp.Term{Var: wj(j), Coef: 1 / float64(in.M)})
	}
	workTerms = append(workTerms, lp.Term{Var: vC, Coef: -1})
	p.AddConstraint(lp.LE, 0, workTerms...)

	ws.totalSegs = totalSegs
	return p
}

// logCut materialises segment s of task j as a supporting-line row, marks
// it generated, and records it in the replay log.
func (ws *Workspace) logCut(p *lp.Problem, f *malleable.Frontier, j, s, n int) {
	addCut(p, f, j, s, n)
	ws.segAdded[int(ws.segOff[j])+s] = true
	ws.cutLog = append(ws.cutLog, sepPick{task: int32(j), seg: int32(s)})
}

// runCutLoop drives the lazy separation to convergence from the initial
// perturbed solve: while some task's work variable sits below its work
// function at the current optimum, add the most violated missing
// supporting lines per offending task and re-optimise warm with the dual
// simplex. Every round adds at least one of the finitely many lines, so
// the iteration is monotone and terminates; the cap is a pure safety net.
// Convergence is confirmed on the polished (exact) optimum: polishing can
// move the solution to a vertex that violates lines the perturbed point
// satisfied, so the loop re-checks and, if needed, keeps cutting. Shared
// by the cold path (SolveLPWith) and the delta path (SolveLPDeltaWith).
func (ws *Workspace) runCutLoop(p *lp.Problem, fronts []malleable.Frontier, sol *lp.Solution, m int) (*lp.Solution, int, int, error) {
	cuts, rounds := 0, 0
	polished := false
	var err error
	for {
		// The re-solves below poll the same flag per pivot; checking here
		// too keeps the O(n·m) separation scans off a canceled request.
		if ws.LP.Cancel.Canceled() {
			return nil, 0, 0, lp.ErrCanceled
		}
		added := ws.addViolatedCuts(p, fronts, sol, m)
		if added == 0 {
			if polished {
				break
			}
			sol, err = p.PolishWith(&ws.LP)
			if err != nil {
				return nil, 0, 0, fmt.Errorf("allot: LP (9) polish failed: %w", err)
			}
			polished = true
			continue
		}
		polished = false
		cuts += added
		rounds++
		if rounds > ws.totalSegs+4 {
			return nil, 0, 0, fmt.Errorf("allot: cut loop failed to converge after %d rounds", rounds)
		}
		sol, err = p.ReSolveWith(&ws.LP)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("allot: LP (9) cut round %d failed: %w", rounds, err)
		}
	}
	return sol, cuts, rounds, nil
}

// extractFractional converts the polished LP solution into the package's
// result shape. C and L are clamped up to the crash bounds the model put
// on them: the simplex honours variable bounds only to its feasibility
// tolerance, and a certified lower bound must never undercut the bound
// every feasible point satisfies.
func (ws *Workspace) extractFractional(sol *lp.Solution, fronts []malleable.Frontier, cuts, rounds int) *Fractional {
	n := len(fronts)
	out := &Fractional{
		X:           make([]float64, n),
		Wbar:        make([]float64, n),
		LStar:       make([]float64, n),
		C:           math.Max(sol.Obj, ws.cFloor),
		L:           math.Max(sol.X[3*n], ws.lFloor),
		Formulation: FormulationLazy,
		Cuts:        cuts,
		Rounds:      rounds,
	}
	for j := 0; j < n; j++ {
		out.X[j] = clamp(sol.X[n+j], fronts[j].XMin(), fronts[j].XMax())
		// Evaluate the work on the frontier rather than trusting the slack
		// LP variable: when the total-work row is not binding the LP may
		// leave wbar_j above w_j(x*_j).
		out.Wbar[j] = fronts[j].WorkAt(out.X[j])
		out.W += out.Wbar[j]
		out.LStar[j] = fronts[j].FractionalAlloc(out.X[j])
	}
	return out
}

// sepPick is one selected cut: segment seg of task task's frontier.
type sepPick struct{ task, seg int32 }

// addViolatedCuts appends, for every task whose work variable sits below
// its work function at the LP solution, the most violated supporting
// lines not yet materialised, and reports how many rows it added. When
// the total-work row is slack — sum_j w_j(x*_j)/m fits under C* — it
// adds nothing at all: raising every wbar_j to w_j(x*_j) then yields a
// fully feasible point of the complete LP (9) at the same objective, so
// the relaxation is already exact and no amount of cutting can change
// C*. Tasks are scanned in index order and each task's lines are added
// most violated first, so the row sequence depends on the solution
// alone.
func (ws *Workspace) addViolatedCuts(p *lp.Problem, fronts []malleable.Frontier, sol *lp.Solution, m int) int {
	n := len(fronts)
	sum := 0.0
	for j := 0; j < n; j++ {
		f := &fronts[j]
		sum += f.WorkAt(clamp(sol.X[n+j], f.XMin(), f.XMax()))
	}
	c := sol.X[3*n+1]
	if sum/float64(m)-c <= cutEps*(1+math.Abs(c)) {
		return 0
	}

	added := 0
	for j := 0; j < n; j++ {
		f := &fronts[j]
		segs := f.Segments()
		if segs < 1 {
			continue
		}
		x := clamp(sol.X[n+j], f.XMin(), f.XMax())
		wbar := sol.X[2*n+j]
		wtrue := f.WorkAt(x)
		eps := cutEps * (1 + math.Abs(wtrue))
		if wtrue-wbar <= eps {
			continue
		}
		// Select the task's top-K violated missing lines per round (rather
		// than only the single worst): cuts are cheap rows, extra rounds
		// are warm re-solves, so batching converges in far fewer rounds.
		const topK = 4
		var segTop [topK]int32
		var violTop [topK]float64
		cnt := 0
		base := int(ws.segOff[j])
		for s := 0; s < segs; s++ {
			if ws.segAdded[base+s] || !ws.segRep[base+s] {
				continue
			}
			slope, intercept := lineCoefs(f, s)
			v := slope*x + intercept - wbar
			if v <= eps {
				continue
			}
			i := cnt
			if i == topK {
				i--
				if v <= violTop[i] {
					continue
				}
			} else {
				cnt++
			}
			for i > 0 && violTop[i-1] < v {
				if i < topK {
					segTop[i], violTop[i] = segTop[i-1], violTop[i-1]
				}
				i--
			}
			segTop[i], violTop[i] = int32(s), v
		}
		for i := 0; i < cnt; i++ {
			ws.logCut(p, f, j, int(segTop[i]), n)
		}
		added += cnt
	}
	return added
}

func clamp(x, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, x))
}

// workFloorMin sums each task's minimal possible work W_j(1) — the valid
// lower bound used for the makespan crash bound.
func workFloorMin(fronts []malleable.Frontier) float64 {
	s := 0.0
	for i := range fronts {
		s += fronts[i].W[0]
	}
	return s
}

// applyCrashBounds installs the implied lower bounds on the completion
// variables (longest path at minimal processing times), on L (the
// largest of those) and on C (max of that and the work floor divided by
// m). Implied bounds leave the polytope untouched but let the initial
// all-lower-bound basis start primal feasible on the precedence
// structure.
func (ws *Workspace) applyCrashBounds(p *lp.Problem, in *Instance, fronts []malleable.Frontier, cj func(int) int, vL, vC int, wfloor float64) {
	n := in.G.N()
	order := ws.topo(in.G)
	lpmin := ws.lpminBuf(n)
	lmax := 0.0
	for _, v32 := range order {
		v := int(v32)
		d := lpmin[v] + fronts[v].XMin()
		lpmin[v] = d
		if d > lmax {
			lmax = d
		}
		for _, s := range in.G.Succs(v) {
			if d > lpmin[s] {
				lpmin[s] = d
			}
		}
	}
	for j := 0; j < n; j++ {
		p.SetBounds(cj(j), lpmin[j], math.Inf(1))
	}
	ws.lFloor, ws.cFloor = lmax, math.Max(lmax, wfloor/float64(in.M))
	p.SetBounds(vL, ws.lFloor, math.Inf(1))
	p.SetBounds(vC, ws.cFloor, math.Inf(1))
}

// Round applies the Section 3.1 rounding with parameter rho in [0,1] to the
// fractional processing times, producing the integral allotment alpha':
// l'_j processors for task j. Lemma 4.2 guarantees the rounded processing
// time is at most 2x*_j/(1+rho) and the rounded work at most
// 2 w_j(x*_j)/(2-rho).
func Round(in *Instance, frac *Fractional, rho float64) []int {
	return RoundWith(in, frac, rho, nil)
}

// RoundWith is Round with a reusable workspace: the per-task frontiers are
// recomputed into ws's buffers instead of freshly allocated (a nil ws
// behaves like Round).
func RoundWith(in *Instance, frac *Fractional, rho float64, ws *Workspace) []int {
	var fronts []malleable.Frontier
	if ws != nil {
		fronts = ws.frontiers(in)
	} else {
		fronts = in.Frontiers()
	}
	alloc := make([]int, len(in.Tasks))
	for j := range in.Tasks {
		alloc[j] = fronts[j].Round(frac.X[j], rho)
	}
	return alloc
}
