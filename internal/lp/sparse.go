// The sparse bounded-variable revised simplex. The constraint matrix is
// held in compressed sparse column form with one logical (slack) column
// per row, so the working problem is
//
//	min c·x   s.t.   A x + s = b,   lo <= (x, s) <= hi,
//
// where the logical bounds encode the row sense (LE: s in [0, +Inf),
// GE: s in (-Inf, 0], EQ: s = 0). Variable bounds are enforced
// implicitly: a nonbasic variable rests at one of its bounds and the
// ratio test lets an entering variable flip to its opposite bound
// without a basis change, so bound rows never appear in the matrix.
//
// The basis is a sparse LU factorization (lu.go) amended by a
// product-form eta file: each pivot appends one eta vector and the basis
// is refactorized after 128 etas or on numerical trouble. The
// per-iteration linear algebra is hypersparse: FTRAN of the entering
// column and BTRAN of the leaving unit vector track their nonzero
// patterns through DFS-reach triangular solves, so an iteration costs
// O(pattern) instead of O(m). Reduced costs are maintained incrementally
// across pivots (the classic d_j update along row r of B^-1 A, driven by
// the row-wise constraint storage) and recomputed exactly at every
// refactorization; an apparent optimum on maintained values is confirmed
// against freshly recomputed ones before the solver declares it.
//
// Feasibility is obtained with artificial unit columns on the rows whose
// logical cannot host the initial residual (phase 1 minimises their sum,
// then fixes them to zero; artificials never re-enter the basis).
// Pricing is devex (Harris reference-framework weights approximating the
// steepest-edge norms, entering column maximising d_j^2/w_j) over
// fixed-size candidate buckets scanned partially behind a rotating
// cursor, with weights reset to the unit framework at every
// refactorization and a switch to Bland's rule after a run of degenerate
// pivots. The dual simplex drives the warm restarts of ReSolveWith after
// rows were appended: the old optimal basis stays dual feasible, the
// appended rows' logicals enter basic and possibly primal-infeasible,
// and dual pivots restore feasibility without restarting from scratch;
// its leaving-row choice scans an incrementally maintained set of
// bound-violating basis positions instead of all m rows.
//
// The entry points share one lifecycle: load (build, scale, size the
// columns, set the bounds), a start — the crash basis and phase 1
// (SolveWith), appended logicals and the dual simplex (ReSolveWith), or a
// transplanted basis with bound shifting (SolveHotWith, warm.go) — and
// finish (refactorize, record the basis, extract). Each returns an
// optimum of the perturbed costs; PolishWith is the one place the
// perturbation is removed.

package lp

import (
	"fmt"
	"math"

	"malsched/internal/cancelflag"
)

// Nonbasic/basic status of a column.
const (
	nbLower int8 = iota // nonbasic at lower bound
	nbUpper             // nonbasic at upper bound
	stBasic
)

const (
	dualTol  = 1e-9 // reduced-cost tolerance for entering candidates
	pivotTol = 1e-9 // smallest alpha treated as a usable ratio-test pivot
	ratioTol = 1e-9 // ratio-test tie window
	degenTol = 1e-9 // step lengths below this count as degenerate
	// perturbScale sizes the anti-degeneracy cost perturbation of
	// perturbCosts: large enough to beat the 1e-9 pricing tolerance by
	// orders of magnitude, small enough that PolishWith converges in a few
	// pivots.
	perturbScale = 1e-7
	// priceBucket is the partial-pricing granularity: price scans whole
	// buckets of this many columns behind a rotating cursor and stops
	// early once a bucket yielded an entering candidate (after at least
	// priceMinBuckets buckets, so devex has a pool to choose from).
	priceBucket     = 2048
	priceMinBuckets = 16
)

// Workspace owns the sparse solver's entire state: the CSC model, bounds
// and costs, the basis with its LU factorization and eta file, the
// maintained reduced costs, sparse pattern-tracked scratch vectors and
// the solution buffer. Buffers grow geometrically and are reused across
// solves, so repeated SolveWith calls on same-shaped problems do
// near-zero allocation. A Workspace is owned by one goroutine at a time;
// it is not safe for concurrent use.
type Workspace struct {
	// Cancel, when non-nil, is polled by the primal and dual pivot loops
	// (every pivot — an atomic load against pivots costing hundreds of
	// microseconds at scale) and aborts the solve with ErrCanceled once
	// set. The engine layer wires one flag per worker and drives it from
	// the job's context, so a client disconnect frees the worker within a
	// few pivots instead of after the full solve.
	Cancel *cancelflag.Flag

	// Model, rebuilt from the Problem each (re)solve. Column index space:
	// [0, nstruct) structural, [nstruct, nstruct+nrows) logicals,
	// then nart artificial columns during phase 1.
	nstruct int
	nrows   int
	nart    int
	colptr  []int32
	rowind  []int32
	colval  []float64
	cur     []int32 // fill cursor for the CSC build
	b       []float64
	lo, hi  []float64 // per column
	cost    []float64 // current phase's cost per column
	artRow  []int32
	artSign []float64
	curProb *Problem // row-wise constraint access for the dual updates

	// Equilibration scaling (geometric-mean, two rounds): the solver works
	// on R*A*C with unit-ish coefficients — raw models mix slopes in the
	// thousands with 1/m-sized work terms, and the resulting basis
	// conditioning breaks pivot-size reasoning — and unscales on extract.
	// Column scales are frozen across warm restarts (the basis lives in
	// scaled space); appended rows get fresh row scales.
	rowScale []float64
	colScale []float64

	// Basis state.
	basis  []int32   // column basic in each row position
	status []int8    // per column
	xval   []float64 // per column: bound value if nonbasic, else basic value

	// Factorization and product-form eta file (etas live in basis-position
	// space).
	lu           luFactor
	etaStart     []int32
	etaPivot     []int32
	etaPivVal    []float64
	etaIdx       []int32
	etaVal       []float64
	needRefactor bool

	// Maintained reduced costs (exact at each refactorization, updated
	// incrementally per pivot in between).
	dred   []float64
	dFresh bool

	// Devex pricing state: reference-framework weights per column (unit
	// framework, reset at every refactorization) and the partial-pricing
	// bucket cursor.
	dw          []float64
	priceCursor int

	// Row r of B^-1 A, accumulated sparsely per pivot (updateDuals): the
	// shared input of the reduced-cost and devex-weight updates.
	tcol  []float64
	tPat  []int32
	tMark []int32
	tVer  int32

	// Primal-infeasible basis positions, maintained incrementally by the
	// dual simplex (seeded by a full scan, narrowed per pivot) so the
	// leaving-row choice costs O(violated) instead of O(m).
	infeas     []int32
	infeasMark []int32
	infeasVer  int32

	// Sparse pattern-tracked scratch. Invariant: each value array is zero
	// everywhere outside its pattern; producers clear their previous
	// pattern before writing a new one.
	alpha     []float64 // FTRANed entering column, basis-position space
	alphaPat  []int32
	alphaMark []int32
	alphaVer  int32
	erow      []float64 // BTRAN eta-stage scratch, basis-position space
	erowPat   []int32
	erowMark  []int32
	erowVer   int32
	v         []float64 // BTRANed unit row rho_r, row space
	vPat      []int32
	rhs       []float64 // FTRAN input scratch, row space
	rhsPat    []int32
	w         []float64 // triangular-solve scratch, processing space
	wPat      []int32

	// Dense scratch (refactorization-time recomputations only).
	rhsd []float64 // row space
	wd   []float64 // processing space
	y    []float64 // row space
	cb   []float64 // basis-position space

	// Entering-candidate scratch for the dual ratio test.
	cand     []int32
	candMark []int32
	candVer  int32

	banned []int32

	// Bound-shift log of SolveHotWith: columns whose violated bound was
	// relaxed onto the transplanted basic value (upper shifts stored as
	// the column's bitwise complement) and the true bound to restore.
	shiftIdx []int32
	shiftBnd []float64

	// refactorEvery caps the eta-file length before the basis is
	// refactorized from scratch; 0 means the default (128, the sweet spot
	// measured on the phase-1 workloads). Tests lower it to exercise the
	// refactorization path densely.
	refactorEvery int

	// Bookkeeping.
	stats      Stats
	degen      int
	bland      bool
	solvedVars int
	solvedRows int // rows of the last successful solve's basis (no artificials); -1 = none
	// perturbed tracks whether the current cost vector carries the
	// anti-degeneracy perturbation: set by perturbCosts, cleared by
	// PolishWith. ReSolveWith only re-perturbs while still in the perturbed
	// regime — re-perturbing a polished basis forces the dual restart to
	// re-fight every degenerate tie the polish just resolved, measured as
	// thousands of extra pivots per late cut round.
	perturbed bool

	solx []float64
	sol  Solution // returned by SolveWith; overwritten by the next call
}

// NewWorkspace returns an empty workspace. The zero value is also ready
// to use.
func NewWorkspace() *Workspace { return &Workspace{solvedRows: -1} }

func (ws *Workspace) ncols() int { return ws.nstruct + ws.nrows + ws.nart }

// colSpan returns column j of the working matrix [A | I | artificials]:
// structural columns as CSC slices, logical and artificial columns as a
// single unit entry (unitRow < 0 means "no unit entry").
func (ws *Workspace) colSpan(j int) (idx []int32, val []float64, unitRow int32, unitVal float64) {
	if j < ws.nstruct {
		return ws.rowind[ws.colptr[j]:ws.colptr[j+1]], ws.colval[ws.colptr[j]:ws.colptr[j+1]], -1, 0
	}
	if j < ws.nstruct+ws.nrows {
		return nil, nil, int32(j - ws.nstruct), 1
	}
	a := j - ws.nstruct - ws.nrows
	return nil, nil, ws.artRow[a], ws.artSign[a]
}

// build converts the Problem's row-wise constraints into the workspace's
// CSC storage (entries within a column ordered by row) and copies the rhs.
func (ws *Workspace) build(p *Problem) {
	n, m := p.nvars, len(p.cons)
	ws.nstruct, ws.nrows = n, m
	ws.curProb = p
	ws.colptr = grow(ws.colptr, n+1)
	cp := ws.colptr
	for j := 0; j <= n; j++ {
		cp[j] = 0
	}
	nnz := 0
	for ci := range p.cons {
		for _, t := range p.cons[ci].terms {
			cp[t.Var+1]++
			nnz++
		}
	}
	for j := 0; j < n; j++ {
		cp[j+1] += cp[j]
	}
	ws.rowind = grow(ws.rowind, nnz)
	ws.colval = grow(ws.colval, nnz)
	ws.cur = grow(ws.cur, n)
	copy(ws.cur, cp[:n])
	for ci := range p.cons {
		for _, t := range p.cons[ci].terms {
			pos := ws.cur[t.Var]
			ws.rowind[pos] = int32(ci)
			ws.colval[pos] = t.Coef
			ws.cur[t.Var] = pos + 1
		}
	}
	ws.b = grow(ws.b, m)
	for i := range p.cons {
		ws.b[i] = p.cons[i].rhs
	}
}

// computeScales derives the equilibration scales: two rounds of
// geometric-mean row/column scaling over the freshly built (unscaled)
// CSC. On warm restarts (oldRows > 0) the column scales and existing row
// scales are kept — the basis is expressed in them — and only the
// appended rows are scaled.
func (ws *Workspace) computeScales(p *Problem, oldRows int) {
	n, m := ws.nstruct, ws.nrows
	ws.colScale = extend(ws.colScale, n)
	ws.rowScale = extend(ws.rowScale, m)
	if oldRows == 0 {
		for j := 0; j < n; j++ {
			ws.colScale[j] = 1
		}
		for i := 0; i < m; i++ {
			ws.rowScale[i] = 1
		}
		for round := 0; round < 2; round++ {
			for i := range p.cons {
				ws.scaleRow(p, i)
			}
			for j := 0; j < n; j++ {
				lo, hi := math.Inf(1), 0.0
				for q := ws.colptr[j]; q < ws.colptr[j+1]; q++ {
					if ws.colval[q] == 0 {
						continue
					}
					a := math.Abs(ws.colval[q]) * ws.rowScale[ws.rowind[q]]
					if a < lo {
						lo = a
					}
					if a > hi {
						hi = a
					}
				}
				if hi > 0 {
					ws.colScale[j] = 1 / math.Sqrt(lo*hi)
				}
			}
		}
		return
	}
	for i := oldRows; i < m; i++ {
		ws.rowScale[i] = 1
		ws.scaleRow(p, i)
	}
}

// scaleRow sets row i's scale to the geometric mean 1/sqrt(min·max) of
// its nonzero |a_ij|·colScale_j under the current column scales; a row
// without a nonzero keeps its scale.
func (ws *Workspace) scaleRow(p *Problem, i int) {
	lo, hi := math.Inf(1), 0.0
	for _, t := range p.cons[i].terms {
		if t.Coef == 0 {
			continue
		}
		a := math.Abs(t.Coef) * ws.colScale[t.Var]
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	if hi > 0 {
		ws.rowScale[i] = 1 / math.Sqrt(lo*hi)
	}
}

// applyScales rewrites the CSC values and rhs into scaled space.
func (ws *Workspace) applyScales() {
	for j := 0; j < ws.nstruct; j++ {
		cs := ws.colScale[j]
		for q := ws.colptr[j]; q < ws.colptr[j+1]; q++ {
			ws.colval[q] *= ws.rowScale[ws.rowind[q]] * cs
		}
	}
	for i := 0; i < ws.nrows; i++ {
		ws.b[i] *= ws.rowScale[i]
	}
}

// load is the first stage of every solve. It rebuilds ws's model of p —
// the CSC matrix and rhs, equilibrated with fresh row scales from row
// `from` on and, when from is 0, fresh column scales (a restart keeps the
// scales its basis is expressed in) — sizes the column arrays, keeping
// the first rows' entries, and installs the bounds. crash marks the cold
// start: its artificial columns are counted (crashRows) before the arrays
// are sized, so a fresh workspace sizes them once. Stats, scratch
// vectors and the eta file start empty, and the basis awaits its
// factorization.
func (ws *Workspace) load(p *Problem, from int, crash bool) {
	ws.solvedRows = -1 // invalidated until this solve succeeds
	ws.stats = Stats{}
	ws.build(p)
	ws.computeScales(p, from)
	ws.applyScales()
	ws.artRow = ws.artRow[:0]
	ws.artSign = ws.artSign[:0]
	if crash {
		ws.crashRows(p)
	}
	ws.nart = len(ws.artRow)
	m, nc := ws.nrows, ws.ncols()
	ws.lo = extend(ws.lo, nc)
	ws.hi = extend(ws.hi, nc)
	ws.cost = extend(ws.cost, nc)
	ws.xval = extend(ws.xval, nc)
	ws.status = extend(ws.status, nc)
	ws.basis = extend(ws.basis, m)
	ws.setBounds(p, from)
	ws.stats.Rows, ws.stats.Cols = m, nc
	ws.growScratch()
	ws.resetEtas()
	ws.needRefactor = true
}

// crashRows computes the initial residual b - A·lo of the crash point
// (structurals at their lower bound, logicals at zero) into rhsd and
// picks the rows whose logical cannot host it: each gets an artificial
// column, sign matched to the residual so it starts basic and feasible.
func (ws *Workspace) crashRows(p *Problem) {
	n, m := ws.nstruct, ws.nrows
	ws.rhsd = grow(ws.rhsd, m)
	copy(ws.rhsd, ws.b[:m])
	for j := 0; j < n; j++ {
		l := p.lo[j] / ws.colScale[j]
		if l == 0 {
			continue
		}
		for q := ws.colptr[j]; q < ws.colptr[j+1]; q++ {
			ws.rhsd[ws.rowind[q]] -= ws.colval[q] * l
		}
	}
	for i := 0; i < m; i++ {
		r := ws.rhsd[i]
		ok := false
		switch p.cons[i].sense {
		case LE:
			ok = r >= -tol
		case GE:
			ok = r <= tol
		case EQ:
			ok = r >= -tol && r <= tol
		}
		if !ok {
			sign := 1.0
			if r < 0 {
				sign = -1.0
			}
			ws.artRow = append(ws.artRow, int32(i))
			ws.artSign = append(ws.artSign, sign)
		}
	}
}

// startBasis installs the crash basis on the loaded model: structurals
// nonbasic at their lower bound, each row's logical basic at the crash
// residual, or nonbasic at zero behind the row's artificial.
func (ws *Workspace) startBasis(p *Problem) {
	n, m := ws.nstruct, ws.nrows
	for j := 0; j < n; j++ {
		ws.xval[j] = ws.lo[j]
		ws.status[j] = nbLower
	}
	for i := 0; i < m; i++ {
		s := n + i
		ws.status[s] = nbLower // logicals start at 0, a GE row's upper bound
		if p.cons[i].sense == GE {
			ws.status[s] = nbUpper
		}
		ws.xval[s] = 0
	}
	ai := 0
	for i := 0; i < m; i++ {
		if ai < ws.nart && int(ws.artRow[ai]) == i {
			a := n + m + ai
			ws.lo[a], ws.hi[a] = 0, math.Inf(1)
			ws.basis[i] = int32(a)
			ws.status[a] = stBasic
			ws.xval[a] = math.Abs(ws.rhsd[i])
			ai++
		} else {
			s := n + i
			ws.basis[i] = int32(s)
			ws.status[s] = stBasic
			ws.xval[s] = ws.rhsd[i]
		}
	}
}

// setBounds installs the column bounds of p's scaled model: every
// structural's SetBounds pair under the current column scales, and, for
// the rows from `from` on, each logical's sign range by its row's sense
// (LE: [0, +Inf), GE: (-Inf, 0], EQ: [0, 0]). Earlier rows' logicals keep
// theirs.
func (ws *Workspace) setBounds(p *Problem, from int) {
	n := ws.nstruct
	for j := 0; j < n; j++ {
		ws.lo[j] = p.lo[j] / ws.colScale[j]
		ws.hi[j] = p.hi[j] / ws.colScale[j]
	}
	for i := from; i < ws.nrows; i++ {
		s := n + i
		switch p.cons[i].sense {
		case LE:
			ws.lo[s], ws.hi[s] = 0, math.Inf(1)
		case GE:
			ws.lo[s], ws.hi[s] = math.Inf(-1), 0
		case EQ:
			ws.lo[s], ws.hi[s] = 0, 0
		}
	}
}

// growScratch sizes every solver buffer for the current model and resets
// the sparse-vector zero invariant (a cheap O(m + ncols) pass per solve).
func (ws *Workspace) growScratch() {
	m, nc := ws.nrows, ws.ncols()
	ws.alpha = grow(ws.alpha, m)
	ws.erow = grow(ws.erow, m)
	ws.v = grow(ws.v, m)
	ws.rhs = grow(ws.rhs, m)
	ws.w = grow(ws.w, m)
	ws.alphaMark = grow(ws.alphaMark, m)
	ws.erowMark = grow(ws.erowMark, m)
	ws.rhsd = grow(ws.rhsd, m)
	ws.wd = grow(ws.wd, m)
	ws.y = grow(ws.y, m)
	ws.cb = grow(ws.cb, m)
	ws.dred = grow(ws.dred, nc)
	ws.candMark = grow(ws.candMark, nc)
	ws.dw = grow(ws.dw, nc)
	ws.tcol = grow(ws.tcol, nc)
	ws.tMark = grow(ws.tMark, nc)
	ws.infeasMark = grow(ws.infeasMark, m)
	clear(ws.alpha)
	clear(ws.erow)
	clear(ws.v)
	clear(ws.rhs)
	clear(ws.w)
	clear(ws.alphaMark)
	clear(ws.erowMark)
	clear(ws.candMark)
	clear(ws.tcol)
	clear(ws.tMark)
	clear(ws.infeasMark)
	ws.alphaPat = ws.alphaPat[:0]
	ws.erowPat = ws.erowPat[:0]
	ws.vPat = ws.vPat[:0]
	ws.rhsPat = ws.rhsPat[:0]
	ws.wPat = ws.wPat[:0]
	ws.tPat = ws.tPat[:0]
	ws.infeas = ws.infeas[:0]
	ws.alphaVer, ws.erowVer, ws.candVer, ws.tVer, ws.infeasVer = 0, 0, 0, 0, 0
	// The partial-pricing cursor restarts at bucket zero for every solve:
	// a leftover cursor from the previous solve on a reused workspace
	// would make devex tie-breaks — and thus the chosen alternate-optimal
	// vertex — depend on the workspace's history.
	ws.priceCursor = 0
	ws.dFresh = false
	ws.resetDevex()
}

// resetDevex restores the unit reference framework: every column's devex
// weight returns to 1, making the next entering choices plain Dantzig
// until the weights re-learn the local steepest-edge geometry. Runs at
// every refactorization (refresh), so weight drift never outlives an eta
// file.
func (ws *Workspace) resetDevex() {
	dw := ws.dw[:ws.ncols()]
	for j := range dw {
		dw[j] = 1
	}
}

func (ws *Workspace) refactorLimit() int {
	if ws.refactorEvery > 0 {
		return ws.refactorEvery
	}
	return 128
}

func (ws *Workspace) resetEtas() {
	if cap(ws.etaStart) == 0 {
		ws.etaStart = make([]int32, 1, 64)
	}
	ws.etaStart = ws.etaStart[:1]
	ws.etaStart[0] = 0
	ws.etaPivot = ws.etaPivot[:0]
	ws.etaPivVal = ws.etaPivVal[:0]
	ws.etaIdx = ws.etaIdx[:0]
	ws.etaVal = ws.etaVal[:0]
}

// appendEta records the product-form update for a pivot in row position r
// with FTRANed entering column alpha (entries below 1e-12 are dropped to
// keep the file sparse; the periodic refactorization absorbs the error).
// Only alpha's tracked pattern is visited.
func (ws *Workspace) appendEta(r int) {
	ws.etaPivot = append(ws.etaPivot, int32(r))
	ws.etaPivVal = append(ws.etaPivVal, ws.alpha[r])
	for _, k := range ws.alphaPat {
		if int(k) == r {
			continue
		}
		if v := ws.alpha[k]; v > 1e-12 || v < -1e-12 {
			ws.etaIdx = append(ws.etaIdx, k)
			ws.etaVal = append(ws.etaVal, v)
		}
	}
	ws.etaStart = append(ws.etaStart, int32(len(ws.etaIdx)))
}

// factorize rebuilds the LU factorization of the current basis, clears
// the eta file and recomputes the basic variable values from scratch.
func (ws *Workspace) factorize() error {
	if FaultLUFactor != nil && FaultLUFactor() {
		// Invalidate the failure coordinates: an injected failure has no
		// real unpivoted row, and letting repairSingular act on stale
		// ones would swap a healthy basic variable out — corrupting the
		// basis instead of simulating a failed factorization.
		ws.lu.failPos, ws.lu.failRow = -1, -1
		return ErrSingular
	}
	if err := ws.lu.factor(ws); err != nil {
		return err
	}
	ws.resetEtas()
	ws.needRefactor = false
	ws.stats.Factorizations++
	ws.computeBasicValues()
	return nil
}

// refresh is factorize plus an exact recomputation of the maintained
// reduced costs and a devex reference-framework reset — the periodic
// truth-restoring step of the iteration.
func (ws *Workspace) refresh() error {
	if err := ws.factorize(); err != nil {
		return err
	}
	ws.recomputeDuals()
	ws.resetDevex()
	return nil
}

// computeBasicValues solves B x_B = b - A_N x_N for the current basis
// (dense: only runs at refactorizations).
func (ws *Workspace) computeBasicValues() {
	m := ws.nrows
	copy(ws.rhsd, ws.b[:m])
	nc := ws.ncols()
	for j := 0; j < nc; j++ {
		if ws.status[j] == stBasic {
			continue
		}
		xv := ws.xval[j]
		if xv == 0 {
			continue
		}
		idx, val, ur, uv := ws.colSpan(j)
		for p, i := range idx {
			ws.rhsd[i] -= val[p] * xv
		}
		if ur >= 0 {
			ws.rhsd[ur] -= uv * xv
		}
	}
	ws.ftranDense(ws.rhsd, ws.cb)
	for k := 0; k < m; k++ {
		ws.xval[ws.basis[k]] = ws.cb[k]
	}
}

// recomputeDuals rebuilds the maintained reduced costs exactly from
// y = B^-T c_B (dense: only runs at refactorizations and phase starts).
func (ws *Workspace) recomputeDuals() {
	m := ws.nrows
	for k := 0; k < m; k++ {
		ws.cb[k] = ws.cost[ws.basis[k]]
	}
	ws.btranDense(ws.cb, ws.y)
	limit := ws.nstruct + ws.nrows // artificial duals are never read
	for j := 0; j < limit; j++ {
		ws.dred[j] = ws.cost[j] - ws.colDot(j, ws.y)
	}
	ws.dFresh = true
}

// ftranDense solves B out = x for the dense row-space vector x
// (destroyed); out is in basis-position space.
func (ws *Workspace) ftranDense(x, out []float64) {
	lu := &ws.lu
	lu.lsolve(x)
	m := ws.nrows
	w := ws.wd
	for k := 0; k < m; k++ {
		w[k] = x[lu.prow[k]]
	}
	lu.usolve(w[:m])
	for k := 0; k < m; k++ {
		out[lu.cpos[k]] = w[k]
	}
	for e := 0; e < len(ws.etaPivot); e++ {
		r := ws.etaPivot[e]
		xr := out[r]
		if xr == 0 {
			continue
		}
		xr /= ws.etaPivVal[e]
		out[r] = xr
		for q := ws.etaStart[e]; q < ws.etaStart[e+1]; q++ {
			out[ws.etaIdx[q]] -= ws.etaVal[q] * xr
		}
	}
}

// btranDense solves B^T out = c for the dense basis-position-space vector
// c (preserved); out is in row space.
func (ws *Workspace) btranDense(c, out []float64) {
	m := ws.nrows
	// out doubles as the position-space eta scratch: it is fully
	// overwritten by the final row-space scatter.
	copy(out[:m], c[:m])
	for e := len(ws.etaPivot) - 1; e >= 0; e-- {
		r := ws.etaPivot[e]
		acc := out[r]
		for q := ws.etaStart[e]; q < ws.etaStart[e+1]; q++ {
			acc -= ws.etaVal[q] * out[ws.etaIdx[q]]
		}
		out[r] = acc / ws.etaPivVal[e]
	}
	lu := &ws.lu
	w := ws.wd
	for k := 0; k < m; k++ {
		w[k] = out[lu.cpos[k]] // position space -> processing order
	}
	lu.utsolve(w[:m])
	lu.ltsolve(w[:m])
	for k := 0; k < m; k++ {
		out[lu.prow[k]] = w[k]
	}
}

// ftranSparse computes alpha = B^-1 a_j with pattern tracking: the result
// lands in ws.alpha (basis-position space) with support ws.alphaPat.
func (ws *Workspace) ftranSparse(j int) {
	lu := &ws.lu
	m := ws.nrows
	// Stage 1: scatter the column into the row-space scratch.
	for _, i := range ws.rhsPat {
		ws.rhs[i] = 0
	}
	ws.rhsPat = ws.rhsPat[:0]
	idx, val, ur, uv := ws.colSpan(j)
	for p, i := range idx {
		if ws.rhs[i] == 0 {
			ws.rhsPat = append(ws.rhsPat, i)
		}
		ws.rhs[i] += val[p]
	}
	if ur >= 0 {
		if ws.rhs[ur] == 0 {
			ws.rhsPat = append(ws.rhsPat, ur)
		}
		ws.rhs[ur] += uv
	}
	// Stage 2: sparse L-solve, then map original rows to processing order.
	top := lu.solveLSparse(ws.rhs, ws.rhsPat)
	ws.rhsPat = ws.rhsPat[:0]
	ws.wPat = ws.wPat[:0]
	for p := top; p < m; p++ {
		i := lu.found[p]
		k := lu.pinv[i]
		ws.w[k] = ws.rhs[i]
		ws.rhs[i] = 0
		ws.wPat = append(ws.wPat, k)
	}
	// Stage 3: sparse U-solve, then map processing order to basis position.
	top = lu.solveUSparse(ws.w, ws.wPat)
	ws.wPat = ws.wPat[:0]
	for _, k := range ws.alphaPat {
		ws.alpha[k] = 0
	}
	ws.alphaPat = ws.alphaPat[:0]
	ws.alphaVer++
	for p := top; p < m; p++ {
		k := lu.found[p]
		pos := lu.cpos[k]
		ws.alpha[pos] = ws.w[k]
		ws.w[k] = 0
		ws.alphaMark[pos] = ws.alphaVer
		ws.alphaPat = append(ws.alphaPat, pos)
	}
	// Stage 4: the eta file, in order, pattern-aware.
	for e := 0; e < len(ws.etaPivot); e++ {
		r := ws.etaPivot[e]
		xr := ws.alpha[r]
		if xr == 0 {
			continue
		}
		xr /= ws.etaPivVal[e]
		ws.alpha[r] = xr
		for q := ws.etaStart[e]; q < ws.etaStart[e+1]; q++ {
			k := ws.etaIdx[q]
			if ws.alphaMark[k] != ws.alphaVer {
				ws.alphaMark[k] = ws.alphaVer
				ws.alphaPat = append(ws.alphaPat, k)
			}
			ws.alpha[k] -= ws.etaVal[q] * xr
		}
	}
}

// btranRowSparse computes rho_r = B^-T e_r with pattern tracking: the
// result lands in ws.v (row space) with support ws.vPat. It must run
// before the pivot's eta is appended (rho is taken against the current
// basis).
func (ws *Workspace) btranRowSparse(r int) {
	lu := &ws.lu
	m := ws.nrows
	// Stage 1: unit vector through the transposed eta file, in reverse.
	for _, k := range ws.erowPat {
		ws.erow[k] = 0
	}
	ws.erowPat = ws.erowPat[:0]
	ws.erowVer++
	ws.erow[r] = 1
	ws.erowMark[r] = ws.erowVer
	ws.erowPat = append(ws.erowPat, int32(r))
	for e := len(ws.etaPivot) - 1; e >= 0; e-- {
		re := ws.etaPivot[e]
		acc := ws.erow[re]
		any := acc != 0
		for q := ws.etaStart[e]; q < ws.etaStart[e+1]; q++ {
			if x := ws.erow[ws.etaIdx[q]]; x != 0 {
				acc -= ws.etaVal[q] * x
				any = true
			}
		}
		if !any {
			continue
		}
		if ws.erowMark[re] != ws.erowVer {
			ws.erowMark[re] = ws.erowVer
			ws.erowPat = append(ws.erowPat, re)
		}
		ws.erow[re] = acc / ws.etaPivVal[e]
	}
	// Stage 2: map basis positions to processing order and solve U^T.
	ws.wPat = ws.wPat[:0]
	for _, pos := range ws.erowPat {
		k := lu.cposInv[pos]
		ws.w[k] = ws.erow[pos]
		ws.erow[pos] = 0
		ws.wPat = append(ws.wPat, k)
	}
	ws.erowPat = ws.erowPat[:0]
	top := lu.solveUTSparse(ws.w, ws.wPat)
	// Stage 3: L^T over the U^T result's pattern (copied out first: the
	// DFS reuses the shared found stack).
	ws.wPat = ws.wPat[:0]
	for p := top; p < m; p++ {
		ws.wPat = append(ws.wPat, lu.found[p])
	}
	top = lu.solveLTSparse(ws.w, ws.wPat)
	ws.wPat = ws.wPat[:0]
	// Stage 4: scatter to row space.
	for _, i := range ws.vPat {
		ws.v[i] = 0
	}
	ws.vPat = ws.vPat[:0]
	for p := top; p < m; p++ {
		k := lu.found[p]
		i := lu.prow[k]
		ws.v[i] = ws.w[k]
		ws.w[k] = 0
		ws.vPat = append(ws.vPat, i)
	}
}

// updateDuals applies the pivot's reduced-cost and devex-weight updates.
// Row r of B^-1 A — whose support is exactly the columns with entries in
// rho_r's rows (rho_r is in ws.v from btranRowSparse) — is accumulated
// once into the sparse ws.tcol scatter, then drives both d_j -= theta *
// a_rj and the reference-framework update w_j = max(w_j, a_rj^2 * w_q /
// piv^2). The leaving variable lands at -theta exactly (weight inherited
// from the entering column's, floored at the unit framework) and the
// entering one at zero.
func (ws *Workspace) updateDuals(theta float64, lv, q int, piv float64) {
	p := ws.curProb
	n := ws.nstruct
	ws.tVer++
	ws.tPat = ws.tPat[:0]
	for _, i := range ws.vPat {
		rv := ws.v[i]
		if rv == 0 {
			continue
		}
		rs := rv * ws.rowScale[i]
		for _, t := range p.cons[i].terms {
			j := t.Var
			if ws.tMark[j] != ws.tVer {
				ws.tMark[j] = ws.tVer
				ws.tcol[j] = 0
				ws.tPat = append(ws.tPat, int32(j))
			}
			ws.tcol[j] += rs * t.Coef * ws.colScale[j]
		}
		s := n + int(i)
		if ws.tMark[s] != ws.tVer {
			ws.tMark[s] = ws.tVer
			ws.tcol[s] = 0
			ws.tPat = append(ws.tPat, int32(s))
		}
		ws.tcol[s] += rv
	}
	// Cap the propagated weight factor: a near-threshold pivot would send
	// gamma (and every touched weight) to 1e14+, flattening the devex
	// scores to noise until the next framework reset.
	gamma := ws.dw[q] / (piv * piv)
	if gamma > 1e8 {
		gamma = 1e8
	}
	for _, j32 := range ws.tPat {
		j := int(j32)
		arj := ws.tcol[j]
		ws.dred[j] -= theta * arj
		if ws.status[j] != stBasic {
			if w := arj * arj * gamma; w > ws.dw[j] {
				ws.dw[j] = w
			}
		}
	}
	ws.dred[lv] = -theta
	ws.dred[q] = 0
	ws.dw[lv] = math.Max(gamma, 1)
	ws.dFresh = false
}

// colDot returns y·a_j for the row-space vector y.
func (ws *Workspace) colDot(j int, y []float64) float64 {
	idx, val, ur, uv := ws.colSpan(j)
	d := 0.0
	for p, i := range idx {
		d += val[p] * y[i]
	}
	if ur >= 0 {
		d += uv * y[ur]
	}
	return d
}

func (ws *Workspace) isBanned(j int) bool {
	for _, b := range ws.banned {
		if int(b) == j {
			return true
		}
	}
	return false
}

// price chooses the entering candidate among the nonbasic structural and
// logical columns (artificials never re-enter) on the maintained reduced
// costs: devex — the eligible column maximising d_j^2 / w_j — scanned
// over fixed-size buckets behind a rotating cursor, stopping early once a
// candidate emerged and at least priceMinBuckets buckets were seen (so
// the weights have a pool to discriminate in). Under Bland's rule the
// scan degenerates to the first eligible index, full-width. Returns -1
// only after a complete scan found no eligible column.
func (ws *Workspace) price() int {
	limit := ws.nstruct + ws.nrows
	if ws.bland {
		for j := 0; j < limit; j++ {
			st := ws.status[j]
			if st == stBasic || ws.lo[j] == ws.hi[j] {
				continue
			}
			d := ws.dred[j]
			var viol float64
			if st == nbLower {
				viol = -d
			} else {
				viol = d
			}
			if viol > dualTol && !ws.isBanned(j) {
				return j
			}
		}
		return -1
	}
	nb := (limit + priceBucket - 1) / priceBucket
	if nb == 0 {
		return -1
	}
	if ws.priceCursor >= nb {
		ws.priceCursor = 0
	}
	bestJ := -1
	bestScore := 0.0
	for t := 0; t < nb; t++ {
		b := ws.priceCursor + t
		if b >= nb {
			b -= nb
		}
		hi := (b + 1) * priceBucket
		if hi > limit {
			hi = limit
		}
		for j := b * priceBucket; j < hi; j++ {
			st := ws.status[j]
			if st == stBasic || ws.lo[j] == ws.hi[j] {
				continue
			}
			d := ws.dred[j]
			var viol float64
			if st == nbLower {
				viol = -d
			} else {
				viol = d
			}
			if viol <= dualTol {
				continue
			}
			if score := viol * viol / ws.dw[j]; score > bestScore {
				if len(ws.banned) > 0 && ws.isBanned(j) {
					continue
				}
				bestScore, bestJ = score, j
			}
		}
		if bestJ >= 0 && t+1 >= priceMinBuckets {
			ws.priceCursor = b + 1
			if ws.priceCursor >= nb {
				ws.priceCursor = 0
			}
			return bestJ
		}
	}
	return bestJ
}

// primal runs the bounded-variable primal simplex on the current basis
// and cost vector until dual feasibility. It returns the pivot count.
func (ws *Workspace) primal(maxIter int) (int, error) {
	m := ws.nrows
	ws.banned = ws.banned[:0]
	ws.degen = 0
	ws.bland = false
	iters := 0
	for {
		if ws.Cancel.Canceled() {
			return iters, ErrCanceled
		}
		if ws.needRefactor || len(ws.etaPivot) >= ws.refactorLimit() {
			if err := ws.refresh(); err != nil {
				return iters, err
			}
		}
		q := ws.price()
		if q < 0 {
			// Optimal on the maintained reduced costs; confirm against
			// exactly recomputed ones unless they are already fresh.
			if ws.dFresh && len(ws.etaPivot) == 0 {
				return iters, nil
			}
			if err := ws.refresh(); err != nil {
				return iters, err
			}
			if q = ws.price(); q < 0 {
				return iters, nil
			}
		}
		ws.ftranSparse(q)

		// Bounded ratio test over alpha's pattern: the entering variable
		// moves by t >= 0 away from its current bound (sigma is the
		// movement direction), basic variables move by -t*sigma*alpha, and
		// t is capped by the first basic variable to hit a bound or by the
		// entering variable's own opposite bound (a bound flip, which
		// needs no basis change).
		sigma := 1.0
		if ws.status[q] == nbUpper {
			sigma = -1.0
		}
		flipT := ws.hi[q] - ws.lo[q]
		bestT := flipT
		leave := -1
		leaveToLower := false
		if ws.bland {
			// Strict single-pass test with smallest-index ties: Bland's
			// anti-cycling guarantee needs the index rule on both halves.
			for _, k32 := range ws.alphaPat {
				k := int(k32)
				a := sigma * ws.alpha[k]
				bj := ws.basis[k]
				var t float64
				var toLower bool
				if a > pivotTol {
					l := ws.lo[bj]
					if math.IsInf(l, -1) {
						continue
					}
					t = (ws.xval[bj] - l) / a
					toLower = true
				} else if a < -pivotTol {
					h := ws.hi[bj]
					if math.IsInf(h, 1) {
						continue
					}
					t = (h - ws.xval[bj]) / -a
				} else {
					continue
				}
				if t < 0 {
					t = 0
				}
				if t < bestT-ratioTol ||
					(leave >= 0 && t < bestT+ratioTol && bj < ws.basis[leave]) {
					leave, leaveToLower = k, toLower
					if t < bestT {
						bestT = t
					}
				}
			}
		} else {
			// Harris two-pass ratio test. Pass 1 finds the step limit with
			// every bound relaxed by a tiny relative slack; pass 2 picks,
			// among the rows whose strict ratio fits under that limit, the
			// one with the largest pivot. Nearly parallel supporting-line
			// cuts make tiny row entries common, and pivoting on one
			// corrupts the basis within a few eta updates — Harris trades
			// a bounded (1e-9 relative, refactorization-absorbed) bound
			// overshoot for a stable pivot.
			tlim := flipT
			for _, k32 := range ws.alphaPat {
				k := int(k32)
				a := sigma * ws.alpha[k]
				bj := ws.basis[k]
				var t float64
				if a > pivotTol {
					l := ws.lo[bj]
					if math.IsInf(l, -1) {
						continue
					}
					t = (ws.xval[bj] - l + tol*(1+math.Abs(l))) / a
				} else if a < -pivotTol {
					h := ws.hi[bj]
					if math.IsInf(h, 1) {
						continue
					}
					t = (h + tol*(1+math.Abs(h)) - ws.xval[bj]) / -a
				} else {
					continue
				}
				if t < tlim {
					tlim = t
				}
			}
			if tlim < 0 {
				// A basic variable sits outside its bound by more than the
				// Harris slack (accumulated overshoot surfaced by the last
				// refactorization). A degenerate pivot on that row snaps it
				// back onto its bound, so the step limit is zero, not
				// negative — leaving it negative would disqualify every row
				// and fake an unbounded ray.
				tlim = 0
			}
			if !math.IsInf(tlim, 1) {
				bestA := 0.0
				for _, k32 := range ws.alphaPat {
					k := int(k32)
					a := sigma * ws.alpha[k]
					bj := ws.basis[k]
					var t float64
					var toLower bool
					if a > pivotTol {
						l := ws.lo[bj]
						if math.IsInf(l, -1) {
							continue
						}
						t = (ws.xval[bj] - l) / a
						toLower = true
					} else if a < -pivotTol {
						h := ws.hi[bj]
						if math.IsInf(h, 1) {
							continue
						}
						t = (h - ws.xval[bj]) / -a
					} else {
						continue
					}
					if t < 0 {
						t = 0
					}
					if t <= tlim {
						if am := math.Abs(ws.alpha[k]); am > bestA {
							bestA, leave, leaveToLower = am, k, toLower
							bestT = t
						}
					}
				}
				if leave >= 0 && flipT <= bestT {
					leave = -1 // the bound flip is at least as tight: cheaper
					bestT = flipT
				}
			}
		}
		if leave < 0 && math.IsInf(bestT, 1) {
			// An unbounded ray is only trusted on exact reduced costs and
			// a fresh factorization; stale maintained duals can point at a
			// phantom direction.
			if ws.dFresh && len(ws.etaPivot) == 0 {
				return iters, ErrUnbounded
			}
			if err := ws.refresh(); err != nil {
				return iters, err
			}
			continue
		}
		if leave >= 0 {
			piv := math.Abs(ws.alpha[leave])
			if piv < 1e-7 && len(ws.etaPivot) > 0 {
				// Unstable pivot on an aged factorization: refactorize and
				// retry the iteration with exact alphas.
				ws.needRefactor = true
				continue
			}
			if piv < 1e-10 {
				ws.banned = append(ws.banned, int32(q))
				continue
			}
		}

		if bestT > 0 {
			for _, k := range ws.alphaPat {
				if a := ws.alpha[k]; a != 0 {
					ws.xval[ws.basis[k]] -= bestT * sigma * a
				}
			}
		}
		if leave < 0 {
			// Bound flip: the entering variable crosses to its other bound.
			if sigma > 0 {
				ws.xval[q] = ws.hi[q]
				ws.status[q] = nbUpper
			} else {
				ws.xval[q] = ws.lo[q]
				ws.status[q] = nbLower
			}
		} else {
			piv := ws.alpha[leave]
			theta := ws.dred[q] / piv
			ws.btranRowSparse(leave) // against the pre-pivot basis
			lv := ws.basis[leave]
			ws.xval[q] += sigma * bestT
			if leaveToLower {
				ws.xval[lv] = ws.lo[lv]
				ws.status[lv] = nbLower
			} else {
				ws.xval[lv] = ws.hi[lv]
				ws.status[lv] = nbUpper
			}
			ws.status[q] = stBasic
			ws.basis[leave] = int32(q)
			ws.appendEta(leave)
			ws.updateDuals(theta, int(lv), q, piv)
			ws.banned = ws.banned[:0]
			if bestT <= degenTol {
				ws.degen++
				if ws.degen > m+100 {
					ws.bland = true // anti-cycling: switch to Bland's rule
				}
			} else {
				ws.degen = 0
				ws.bland = false
			}
		}
		iters++
		if iters > maxIter {
			return iters, ErrIterLimit
		}
	}
}

// repairSingular recovers from a numerically singular basis: the column
// that found no usable pivot during factorization is ousted to its nearer
// bound and replaced by the logical of a still-unpivoted row. The crash
// ordering factors unit columns first, so an unpivoted row's logical is
// necessarily nonbasic and the swap restores structural nonsingularity;
// a few retries handle cascading near-dependence. Only the dual simplex
// uses this — the bound violations the swap introduces are exactly what
// it knows how to repair.
func (ws *Workspace) repairSingular() error {
	for attempt := 0; attempt < 64; attempt++ {
		pos := int(ws.lu.failPos)
		row := ws.lu.failRow
		if row < 0 || pos < 0 || pos >= ws.nrows {
			return ErrSingular
		}
		ousted := int(ws.basis[pos])
		s := ws.nstruct + int(row)
		if ws.status[s] == stBasic {
			return ErrSingular // cannot happen under crash ordering; bail
		}
		lo, hi := ws.lo[ousted], ws.hi[ousted]
		x := ws.xval[ousted]
		if math.IsInf(hi, 1) || (!math.IsInf(lo, -1) && x-lo <= hi-x) {
			ws.xval[ousted] = lo
			ws.status[ousted] = nbLower
		} else {
			ws.xval[ousted] = hi
			ws.status[ousted] = nbUpper
		}
		ws.basis[pos] = int32(s)
		ws.status[s] = stBasic
		err := ws.refresh()
		if err == nil {
			return nil
		}
		if err != ErrSingular {
			return err
		}
	}
	return ErrSingular
}

// violation returns the relative bound violation of the variable basic
// in position k (0 when it sits inside its bounds) and whether it must
// move up toward its lower bound.
func (ws *Workspace) violation(k int) (float64, bool) {
	bj := ws.basis[k]
	x := ws.xval[bj]
	if l := ws.lo[bj]; x < l {
		return (l - x) / (1 + math.Abs(l)), true
	}
	if h := ws.hi[bj]; x > h {
		return (x - h) / (1 + math.Abs(h)), false
	}
	return 0, false
}

// seedInfeas rebuilds the maintained infeasible-position list with a full
// sweep over the basis. The violation threshold sits an order of
// magnitude above the Harris ratio test's bound slack so the dual does
// not chase that debris.
func (ws *Workspace) seedInfeas() {
	m := ws.nrows
	ws.infeasVer++
	ws.infeas = ws.infeas[:0]
	for k := 0; k < m; k++ {
		if v, _ := ws.violation(k); v > 10*tol {
			ws.infeas = append(ws.infeas, int32(k))
			ws.infeasMark[k] = ws.infeasVer
		}
	}
}

// pickInfeas compacts the maintained list (dropping positions that
// became feasible) and returns the worst remaining violation, ties
// broken toward the smaller position — the rule a full index-order scan
// would apply, independent of the list's insertion order.
func (ws *Workspace) pickInfeas() (r int, toLower bool) {
	r = -1
	worst := 10 * tol
	out := ws.infeas[:0]
	for _, k32 := range ws.infeas {
		k := int(k32)
		v, tl := ws.violation(k)
		if v <= 10*tol {
			ws.infeasMark[k] = 0
			continue
		}
		out = append(out, k32)
		if v > worst || (v == worst && r >= 0 && k < r) {
			worst, r, toLower = v, k, tl
		}
	}
	ws.infeas = out
	return r, toLower
}

// dual runs the bounded-variable dual simplex: while some basic variable
// violates a bound, it leaves toward that bound and the entering column
// is chosen by the dual ratio test so reduced costs stay dual feasible.
// Requires a dual-feasible starting basis (an optimal basis of the
// problem before rows were appended). The leaving choice scans the
// incrementally maintained infeasible-position list (re-seeded after
// every refactorization, since recomputed basic values can surface or
// absorb violations wholesale) instead of all m rows per pivot.
func (ws *Workspace) dual(maxIter int) (int, error) {
	m := ws.nrows
	iters := 0
	streak := 0 // consecutive degenerate (zero-ratio) dual pivots
	bland := false
	reseed := true
	for {
		if ws.Cancel.Canceled() {
			return iters, ErrCanceled
		}
		if ws.needRefactor || len(ws.etaPivot) >= ws.refactorLimit() {
			if err := ws.refresh(); err != nil {
				if err == ErrSingular {
					err = ws.repairSingular()
				}
				if err != nil {
					return iters, err
				}
			}
			reseed = true
		}
		// Leaving variable: the largest relative bound violation on the
		// maintained list (under Bland-style anti-cycling: the first
		// violated position, by a full scan — the order matters there).
		r := -1
		toLower := false
		if bland {
			for k := 0; k < m; k++ {
				if v, tl := ws.violation(k); v > 10*tol {
					r, toLower = k, tl
					break
				}
			}
		} else {
			if reseed {
				ws.seedInfeas()
				reseed = false
			}
			r, toLower = ws.pickInfeas()
			if r < 0 && len(ws.infeas) == 0 {
				// Confirm optimality against a full sweep, not just the
				// maintained list (self-healing if maintenance ever missed
				// a position).
				ws.seedInfeas()
				r, toLower = ws.pickInfeas()
			}
		}
		if r < 0 {
			return iters, nil // primal feasible, dual feasible: optimal
		}
		ws.btranRowSparse(r) // rho_r, row space, in ws.v

		// Entering candidates are exactly the columns with support in
		// rho_r's rows (any other column has a zero row entry).
		ws.candVer++
		ws.cand = ws.cand[:0]
		p := ws.curProb
		n := ws.nstruct
		for _, i := range ws.vPat {
			if ws.v[i] == 0 {
				continue
			}
			for _, t := range p.cons[i].terms {
				if ws.candMark[t.Var] != ws.candVer {
					ws.candMark[t.Var] = ws.candVer
					ws.cand = append(ws.cand, int32(t.Var))
				}
			}
			s := n + int(i)
			if ws.candMark[s] != ws.candVer {
				ws.candMark[s] = ws.candVer
				ws.cand = append(ws.cand, int32(s))
			}
		}

		// Dual ratio test. When the leaving variable sits above its upper
		// bound it must decrease, so an entering variable moving away from
		// lower needs a positive row entry (and the mirror cases below);
		// among eligible columns the smallest |d_j| / |a_rj| keeps every
		// reduced cost on its dual-feasible side. Adjacent supporting-line
		// cuts are nearly parallel rows, so tiny row entries abound and a
		// 1e-9-sized pivot corrupts the basis within a few updates; the
		// test therefore runs at two pivot thresholds, preferring any
		// stable candidate (>= stabTol) and accepting a tiny one only when
		// no stable column is eligible at all (the dual-feasibility drift
		// of the skipped tiny columns is below the refresh tolerance).
		// Thresholds are relative to rho's magnitude: with ill-conditioned
		// bases rho carries entries in the thousands, and a row dot product
		// that cancels down to 1e-7 is noise, not a pivot — treating it as
		// one corrupts the basis (the FTRANed pivot then comes out as an
		// exact zero).
		rhoNorm := 0.0
		for _, i := range ws.vPat {
			if a := math.Abs(ws.v[i]); a > rhoNorm {
				rhoNorm = a
			}
		}
		minPiv := pivotTol * (1 + rhoNorm)
		stabPiv := 1e-7 * (1 + rhoNorm)
		lv := int(ws.basis[r])
		q, qWeak := -1, -1
		bestRatio, weakRatio := math.Inf(1), math.Inf(1)
		bestMag, weakMag := 0.0, 0.0
		for _, j32 := range ws.cand {
			j := int(j32)
			st := ws.status[j]
			if st == stBasic || ws.lo[j] == ws.hi[j] {
				continue
			}
			arj := ws.colDot(j, ws.v)
			if arj > -minPiv && arj < minPiv {
				continue
			}
			ok := false
			if toLower { // leaving variable must increase
				ok = (st == nbLower && arj < 0) || (st == nbUpper && arj > 0)
			} else { // leaving variable must decrease
				ok = (st == nbLower && arj > 0) || (st == nbUpper && arj < 0)
			}
			if !ok {
				continue
			}
			d := ws.dred[j]
			var dmag float64
			if st == nbLower {
				dmag = math.Max(d, 0)
			} else {
				dmag = math.Max(-d, 0)
			}
			amag := math.Abs(arj)
			ratio := dmag / amag
			if amag < stabPiv {
				if ratio < weakRatio-ratioTol || (qWeak >= 0 && ratio < weakRatio+ratioTol && amag > weakMag) || qWeak < 0 {
					qWeak, weakMag = j, amag
					if ratio < weakRatio {
						weakRatio = ratio
					}
				}
				continue
			}
			if ratio < bestRatio-ratioTol {
				q, bestRatio, bestMag = j, ratio, amag
			} else if q >= 0 && ratio < bestRatio+ratioTol {
				// Tie-break: Bland picks the smallest column index (dual
				// anti-cycling), otherwise the larger pivot for stability.
				if bland {
					if j < q {
						q, bestMag = j, amag
						if ratio < bestRatio {
							bestRatio = ratio
						}
					}
				} else if amag > bestMag {
					q, bestMag = j, amag
					if ratio < bestRatio {
						bestRatio = ratio
					}
				}
			}
		}
		if q < 0 {
			q, bestRatio = qWeak, weakRatio
		}
		if q < 0 {
			// No entering column can repair the violated row: the appended
			// rows made the problem primal infeasible.
			return iters, ErrInfeasible
		}
		ws.ftranSparse(q)
		piv := ws.alpha[r]
		alphaNorm := 0.0
		for _, k := range ws.alphaPat {
			if a := math.Abs(ws.alpha[k]); a > alphaNorm {
				alphaNorm = a
			}
		}
		if pm := math.Abs(piv); pm < 1e-7*(1+alphaNorm) {
			if len(ws.etaPivot) > 0 {
				ws.needRefactor = true
				continue
			}
			if pm < 1e-9*(1+alphaNorm) {
				return iters, ErrSingular
			}
		}
		target := ws.hi[lv]
		if toLower {
			target = ws.lo[lv]
		}
		t := (ws.xval[lv] - target) / piv
		for _, k := range ws.alphaPat {
			if a := ws.alpha[k]; a != 0 {
				ws.xval[ws.basis[k]] -= t * a
			}
		}
		theta := ws.dred[q] / piv
		ws.xval[q] += t
		ws.xval[lv] = target
		if toLower {
			ws.status[lv] = nbLower
		} else {
			ws.status[lv] = nbUpper
		}
		ws.status[q] = stBasic
		ws.basis[r] = int32(q)
		ws.appendEta(r)
		ws.updateDuals(theta, lv, q, piv)
		if !bland {
			// Maintain the infeasible-position list: the pivot moved
			// exactly the basic values in alpha's pattern (r included).
			for _, k32 := range ws.alphaPat {
				k := int(k32)
				if ws.infeasMark[k] == ws.infeasVer {
					continue
				}
				if v, _ := ws.violation(k); v > 10*tol {
					ws.infeas = append(ws.infeas, k32)
					ws.infeasMark[k] = ws.infeasVer
				}
			}
		}
		// Degenerate dual pivots (zero reduced-cost ratio) leave the dual
		// objective flat and can cycle; a long streak flips both selection
		// rules to Bland's (index) order until progress resumes.
		if bestRatio <= 1e-12 {
			streak++
			if streak > 100 {
				bland = true
			}
		} else {
			streak = 0
			if bland {
				bland = false
				reseed = true // the list went unmaintained while bland
			}
		}
		iters++
		if iters > maxIter {
			return iters, ErrIterLimit
		}
	}
}

// purgeArtificials swaps any artificial still basic (necessarily at value
// zero after the phases) for its row's logical column — both are unit
// columns in the same row, so the basis stays nonsingular — and drops the
// artificial block entirely, leaving a basis over structural and logical
// columns only. This is what makes the warm restart of ReSolveWith
// possible: appended rows reuse the logical index space the artificials
// would otherwise occupy.
func (ws *Workspace) purgeArtificials() {
	if ws.nart == 0 {
		return
	}
	artBase := ws.nstruct + ws.nrows
	for k := 0; k < ws.nrows; k++ {
		if j := int(ws.basis[k]); j >= artBase {
			s := ws.nstruct + int(ws.artRow[j-artBase])
			ws.basis[k] = int32(s)
			ws.status[s] = stBasic
			ws.xval[s] = 0
			ws.needRefactor = true
		}
	}
	ws.nart = 0
}

// perturbCosts adds a tiny deterministic, status-aligned perturbation to
// the structural and logical costs: columns resting at their lower bound
// are nudged up, columns at their upper bound down, so reduced costs move
// strictly away from zero and the current basis stays dual feasible. The
// allotment LP is massively dual degenerate (every cost is zero except the
// makespan's), which makes unperturbed Dantzig and dual ratio tests stall
// on ties; the perturbation breaks every tie deterministically, and
// PolishWith removes it again.
//
// basic perturbs the basic columns' costs too. The hot start leaves them
// alone: perturbing a basic cost moves the duals and with them every
// reduced cost, which would knock a transplanted optimal basis off
// optimality and buy a storm of tiny corrective pivots. Perturbing only
// nonbasic columns, away from their resting bound, keeps the transplanted
// point exactly optimal while still breaking reduced-cost ties among the
// columns that could enter.
//
//malsched:noalloc
func (ws *Workspace) perturbCosts(basic bool) {
	limit := ws.nstruct + ws.nrows
	for j := 0; j < limit; j++ {
		if ws.lo[j] == ws.hi[j] || !basic && ws.status[j] == stBasic {
			continue
		}
		// Golden-ratio hash: deterministic, well spread, allocation free.
		u := float64(j)*0.6180339887498949 + 0.5
		u -= math.Floor(u) // in [0, 1)
		eps := perturbScale * (1 + math.Abs(ws.cost[j])) * (0.5 + 0.5*u)
		if ws.status[j] == nbUpper {
			ws.cost[j] -= eps
		} else {
			ws.cost[j] += eps
		}
	}
	ws.dFresh = false
	ws.perturbed = true
}

func (ws *Workspace) setPhase1Cost() {
	nc := ws.ncols()
	for j := 0; j < nc; j++ {
		ws.cost[j] = 0
	}
	for a := 0; a < ws.nart; a++ {
		ws.cost[ws.nstruct+ws.nrows+a] = 1
	}
}

func (ws *Workspace) setPhase2Cost(p *Problem) {
	nc := ws.ncols()
	for j := 0; j < ws.nstruct; j++ {
		ws.cost[j] = p.obj[j] * ws.colScale[j]
	}
	for j := ws.nstruct; j < nc; j++ {
		ws.cost[j] = 0
	}
}

func (ws *Workspace) extract(p *Problem) *Solution {
	n := ws.nstruct
	ws.solx = grow(ws.solx, n)
	for j := 0; j < n; j++ {
		ws.solx[j] = ws.xval[j] * ws.colScale[j]
	}
	obj := 0.0
	for v, c := range p.obj {
		obj += c * ws.solx[v]
	}
	ws.sol = Solution{X: ws.solx[:n], Obj: obj, Stats: ws.stats}
	return &ws.sol
}

// pivotBudget is the iteration cap of a primal run on the loaded model.
func (ws *Workspace) pivotBudget() int { return 200*(ws.nrows+ws.ncols()) + 2000 }

// finish is the last stage of every successful solve: it refactorizes the
// final basis, so the basic values carry no eta-file drift, records it as
// the basis ReSolveWith, PolishWith and ExportBasis continue from, and
// extracts the solution.
func (ws *Workspace) finish(p *Problem) (*Solution, error) {
	if err := ws.factorize(); err != nil {
		return nil, err
	}
	ws.solvedVars, ws.solvedRows = p.nvars, len(p.cons)
	return ws.extract(p), nil
}

// SolveWith runs the sparse revised simplex using ws's buffers (a nil ws
// uses a fresh one) from the crash basis: phase 1 drives out the
// artificials, phase 2 optimises the cost-perturbed objective, and the
// returned Solution is an optimum of the perturbed costs (objective
// error O(perturbScale)); PolishWith removes the perturbation, and Solve
// does both. Aliasing contract: the returned Solution and its X slice
// alias workspace memory and are overwritten by the next solve on the
// same workspace; callers keeping results across solves must copy them
// out (Problem.Solve does exactly that). The problem itself is never
// modified, so it may be re-solved, rebuilt or extended freely.
func (p *Problem) SolveWith(ws *Workspace) (*Solution, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if p.nvars == 0 {
		ws.solvedRows = -1
		ws.sol = Solution{}
		return &ws.sol, nil
	}
	ws.load(p, 0, true)
	ws.startBasis(p)
	maxIter := ws.pivotBudget()
	if ws.nart > 0 {
		ws.setPhase1Cost()
		iters, err := ws.primal(maxIter)
		ws.stats.Phase1Iters = iters
		if err != nil {
			return nil, fmt.Errorf("phase 1: %w", err)
		}
		sum := 0.0
		for a := 0; a < ws.nart; a++ {
			sum += ws.xval[ws.nstruct+ws.nrows+a]
		}
		if sum > 1e-7 {
			return nil, ErrInfeasible
		}
		// Freeze the artificials at zero; fixed columns never re-enter.
		for a := 0; a < ws.nart; a++ {
			j := ws.nstruct + ws.nrows + a
			ws.lo[j], ws.hi[j] = 0, 0
		}
	}

	ws.setPhase2Cost(p)
	ws.perturbCosts(true)
	// The cost vector changed, so the maintained duals are stale. With a
	// live factorization (post phase 1) recompute them now; otherwise the
	// primal loop's first refresh will.
	if !ws.needRefactor {
		ws.recomputeDuals()
	}
	iters, err := ws.primal(maxIter)
	ws.stats.Phase2Iters = iters
	if err != nil {
		return nil, err
	}
	ws.purgeArtificials()
	return ws.finish(p)
}

// ReSolveWith re-optimises after constraint rows were appended to p since
// the last successful solve on ws, warm-starting the dual simplex from
// the previous optimal basis (which stays dual feasible under row
// appends). Only appends are supported: the caller must not have added
// variables, changed bounds, edited existing rows, or touched the
// objective — any detectable mismatch, and any numerical failure of the
// warm path, falls back to a cold SolveWith. The costs stay perturbed
// while the previous solve left them so (its perturbation is re-applied
// to the grown model) and exact after a PolishWith. The returned
// Solution aliases workspace memory exactly like SolveWith.
func (p *Problem) ReSolveWith(ws *Workspace) (*Solution, error) {
	if ws == nil || ws.solvedRows < 0 || ws.solvedVars != p.nvars ||
		len(p.cons) < ws.solvedRows || p.nvars == 0 {
		return p.SolveWith(ws)
	}
	oldRows := ws.solvedRows
	ws.load(p, oldRows, false) // structurals unchanged by contract but rescaled
	n, m := ws.nstruct, ws.nrows
	ws.setPhase2Cost(p)
	// Each appended row's logical enters the basis at the row's current
	// activity residual; bound violations there are the dual's work list.
	for i := oldRows; i < m; i++ {
		s := n + i
		resid := ws.b[i] // already row-scaled
		for _, t := range p.cons[i].terms {
			resid -= ws.rowScale[i] * t.Coef * ws.colScale[t.Var] * ws.xval[t.Var]
		}
		ws.basis[i] = int32(s)
		ws.status[s] = stBasic
		ws.xval[s] = resid
	}
	if ws.perturbed {
		ws.perturbCosts(true) // status-aligned, so still dual feasible
	}
	// The dual restart should need on the order of one pivot per appended
	// row (plus knock-on repairs), but degenerate ties can demand work
	// unrelated to the append count, and the cold solve below costs tens
	// of thousands of pivots — so the budget keeps a full O(m) of headroom
	// before declaring degenerate thrashing.
	iters, err := ws.dual(2000 + 40*(m-oldRows) + 2*m)
	ws.stats.Phase2Iters = iters
	if err == ErrInfeasible || err == ErrCanceled {
		// Infeasibility is a fact about the problem; cancellation must
		// not trigger a full cold solve. Neither falls back.
		return nil, err
	}
	if err == nil {
		if sol, err := ws.finish(p); err == nil {
			return sol, nil
		}
	}
	return p.SolveWith(ws) // numerical trouble: cold restart is sound
}

// PolishWith removes the cost perturbation the last solve on ws left: it
// restores the true objective, re-optimises from the current
// (near-optimal, primal feasible) basis and extracts an exact optimum.
// Iterating callers — the lazy cut loop in internal/allot — select cuts
// on the perturbed optima and polish once, at the end, instead of
// re-fighting the degenerate final pivots every round. Without a
// matching prior solve it solves cold first. The returned Solution
// aliases workspace memory exactly like SolveWith.
func (p *Problem) PolishWith(ws *Workspace) (*Solution, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if p.nvars == 0 || ws.solvedRows != len(p.cons) || ws.solvedVars != p.nvars {
		if sol, err := p.SolveWith(ws); err != nil || p.nvars == 0 {
			return sol, err
		}
	}
	ws.solvedRows = -1
	ws.setPhase2Cost(p)
	ws.perturbed = false
	ws.recomputeDuals() // the prior solve's finish left a fresh factorization
	iters, err := ws.primal(ws.pivotBudget())
	ws.stats.Phase2Iters += iters
	if err != nil {
		return nil, err
	}
	return ws.finish(p)
}

// extend returns s resized to n, preserving existing contents (unlike
// grow, whose contents are unspecified after reallocation).
func extend[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	t := make([]T, n, c)
	copy(t, s)
	return t
}
