package lp

import "math"

// Basis is a transplantable snapshot of a simplex basis: the per-column
// status vector of an optimal basis, structural columns first, then one
// logical per constraint row. It is the cross-request warm-start currency
// of the serving layer's delta path: a basis exported after solving one
// instance can seed SolveHotWith on a different Problem with the same
// row/column layout but different numbers (bounds, coefficients, rhs).
//
// A Basis is immutable once exported and safe to share across goroutines;
// it holds no workspace memory.
type Basis struct {
	// Status has NVars + NRows entries using the workspace's status
	// encoding (nonbasic-at-lower, nonbasic-at-upper, basic). Exactly
	// NRows entries are basic in a valid basis.
	Status []int8
	NVars  int
	NRows  int
}

// ExportBasis snapshots the basis of the last successful solve on ws
// (SolveWith, ReSolveWith, PolishWith or SolveHotWith). It returns nil if
// the workspace holds no valid solved basis. The snapshot copies the
// status vector, so it remains valid after ws is reused.
func (ws *Workspace) ExportBasis() *Basis {
	if ws.solvedRows < 0 || ws.nart != 0 || ws.solvedVars != ws.nstruct || ws.solvedRows != ws.nrows {
		return nil
	}
	nc := ws.nstruct + ws.nrows
	st := make([]int8, nc)
	copy(st, ws.status[:nc])
	return &Basis{Status: st, NVars: ws.nstruct, NRows: ws.nrows}
}

// perturbCostsNonbasic is the hot-start flavour of perturbCosts: it
// leaves basic costs alone. Perturbing a basic cost moves the duals and
// with them every reduced cost, so the full perturbation would knock a
// transplanted optimal basis off optimality and buy a storm of tiny
// corrective pivots. Perturbing only nonbasic columns, away from their
// resting bound, keeps the transplanted point exactly optimal while
// still breaking reduced-cost ties among the columns that could enter.
//
//malsched:noalloc
func (ws *Workspace) perturbCostsNonbasic() {
	limit := ws.nstruct + ws.nrows
	for j := 0; j < limit; j++ {
		if ws.lo[j] == ws.hi[j] || ws.status[j] == stBasic {
			continue
		}
		u := float64(j)*0.6180339887498949 + 0.5
		u -= math.Floor(u) // golden-ratio hash in [0, 1), as perturbCosts
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

// SolveHotWith solves p starting from a transplanted basis instead of the
// crash basis, for problems with the same layout as the basis's origin
// (same variable count, same row count and senses) but possibly different
// numbers everywhere — the textbook warm start for "same structure,
// edited data". The steps:
//
//  1. rebuild and rescale the model from scratch (fresh numbers mean
//     fresh equilibration; the basis is a combinatorial object and
//     survives rescaling),
//  2. install the snapshot statuses, factorize the transplanted basis
//     (singular bases are repaired by swapping logicals in),
//  3. shift the bounds of out-of-bounds basic variables onto their
//     current values, making the transplanted point primal feasible by
//     construction, and run the primal simplex to optimality of the
//     relaxed problem,
//  4. restore the true bounds and run the dual simplex to clear the
//     remaining primal infeasibilities (the point is dual feasible after
//     step 3, which is exactly the dual's starting requirement).
//
// When the basis comes from a near-identical instance, steps 3 and 4 take
// a handful of pivots each instead of the cold solve's thousands. Any
// mismatch between p and the basis, and any numerical failure of the warm
// path, falls back to a cold SolveWith — SolveHotWith never fails where
// SolveWith would succeed. DeferPolish is honoured exactly like SolveWith.
// The returned Solution aliases workspace memory exactly like SolveWith.
//
//malsched:noalloc
func (p *Problem) SolveHotWith(ws *Workspace, bas *Basis) (*Solution, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if bas == nil || bas.NVars != p.nvars || bas.NRows != len(p.cons) ||
		len(bas.Status) != bas.NVars+bas.NRows || p.nvars == 0 {
		return p.SolveWith(ws)
	}
	ws.solvedRows = -1
	ws.stats = Stats{}
	ws.build(p)
	ws.computeScales(p, 0)
	ws.applyScales()
	n, m := ws.nstruct, ws.nrows
	ws.nart = 0
	ws.artRow = ws.artRow[:0]
	ws.artSign = ws.artSign[:0]
	ncols := n + m
	ws.lo = grow(ws.lo, ncols)
	ws.hi = grow(ws.hi, ncols)
	ws.cost = grow(ws.cost, ncols)
	ws.xval = grow(ws.xval, ncols)
	ws.status = grow(ws.status, ncols)
	ws.basis = grow(ws.basis, m)
	for j := 0; j < n; j++ {
		ws.lo[j] = p.lo[j] / ws.colScale[j]
		ws.hi[j] = p.hi[j] / ws.colScale[j]
	}
	for i := 0; i < m; i++ {
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
	// Transplant the statuses. Nonbasic columns rest on a finite bound;
	// where the snapshot's resting side is infinite under p's bounds (a
	// bound became infinite, or row senses differ from the origin), snap
	// to the other side, and give up on a free column — the crash basis
	// handles those.
	nbasic := 0
	for j := 0; j < ncols; j++ {
		st := bas.Status[j]
		switch st {
		case stBasic:
			ws.status[j] = stBasic
			ws.xval[j] = 0 // recomputed by factorize below
			nbasic++
		case nbLower, nbUpper:
			if st == nbLower && math.IsInf(ws.lo[j], -1) {
				st = nbUpper
			}
			if st == nbUpper && math.IsInf(ws.hi[j], 1) {
				st = nbLower
			}
			if st == nbLower && math.IsInf(ws.lo[j], -1) {
				return p.SolveWith(ws)
			}
			ws.status[j] = st
			if st == nbLower {
				ws.xval[j] = ws.lo[j]
			} else {
				ws.xval[j] = ws.hi[j]
			}
		default:
			return p.SolveWith(ws)
		}
	}
	if nbasic != m {
		return p.SolveWith(ws)
	}
	k := 0
	for j := 0; j < ncols; j++ {
		if ws.status[j] == stBasic {
			ws.basis[k] = int32(j)
			k++
		}
	}
	ws.growScratch()
	ws.resetEtas()
	ws.setPhase2Cost(p)
	ws.stats.Rows, ws.stats.Cols = m, ncols
	maxIter := 200*(m+ncols) + 2000
	if err := ws.factorize(); err != nil {
		if err == ErrSingular {
			err = ws.repairSingular()
		}
		if err != nil {
			return p.SolveWith(ws)
		}
	}
	// Bound shift: relax each out-of-bounds basic variable's violated
	// bound onto its current value, recording the true bound. The
	// transplanted point is then primal feasible by construction.
	ws.shiftIdx = ws.shiftIdx[:0]
	ws.shiftBnd = ws.shiftBnd[:0]
	for r := 0; r < m; r++ {
		j := ws.basis[r]
		x := ws.xval[j]
		if lo := ws.lo[j]; x < lo-tol {
			ws.shiftIdx = append(ws.shiftIdx, j)
			ws.shiftBnd = append(ws.shiftBnd, lo)
			ws.lo[j] = x
		} else if hi := ws.hi[j]; x > hi+tol {
			ws.shiftIdx = append(ws.shiftIdx, ^j) // complement marks an upper shift
			ws.shiftBnd = append(ws.shiftBnd, hi)
			ws.hi[j] = x
		}
	}
	ws.perturbCostsNonbasic()
	ws.recomputeDuals()
	iters, err := ws.primal(maxIter)
	ws.stats.Phase2Iters = iters
	if err != nil {
		return p.SolveWith(ws)
	}
	if len(ws.shiftIdx) > 0 {
		// Restore the true bounds. Nonbasic columns resting on a shifted
		// bound snap to the true bound; basic values left outside their
		// bounds are exactly the dual simplex's work list (the point is
		// dual feasible — the relaxed problem's optimality — which is the
		// dual's starting requirement).
		for i, cj := range ws.shiftIdx {
			if j := cj; j >= 0 {
				ws.lo[j] = ws.shiftBnd[i]
				if ws.status[j] == nbLower {
					ws.xval[j] = ws.lo[j]
				}
			} else {
				j = ^cj
				ws.hi[j] = ws.shiftBnd[i]
				if ws.status[j] == nbUpper {
					ws.xval[j] = ws.hi[j]
				}
			}
		}
		ws.needRefactor = true // nonbasic values moved; basic values are stale
		iters, err = ws.dual(maxIter)
		ws.stats.Phase2Iters += iters
		if err != nil {
			return p.SolveWith(ws)
		}
	}
	if !ws.DeferPolish {
		iters, err = ws.polish(p, maxIter)
		ws.stats.Phase2Iters += iters
		if err != nil {
			return p.SolveWith(ws)
		}
	}
	if err := ws.factorize(); err != nil {
		return p.SolveWith(ws)
	}
	ws.solvedVars, ws.solvedRows = p.nvars, len(p.cons)
	return ws.extract(p), nil
}
