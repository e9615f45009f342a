package lp

import (
	"errors"
	"math"
)

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
	if ws.solvedRows < 0 || ws.solvedVars != ws.nstruct || ws.solvedRows != ws.nrows {
		return nil
	}
	nc := ws.nstruct + ws.nrows
	st := make([]int8, nc)
	copy(st, ws.status[:nc])
	return &Basis{Status: st, NVars: ws.nstruct, NRows: ws.nrows}
}

// errBasisMismatch reports a basis that does not fit the problem handed
// to SolveHotWith: another variable or row count, a status outside the
// encoding, a nonbasic column with no finite bound to rest on, or a
// basic count other than the row count.
var errBasisMismatch = errors.New("lp: basis does not fit the problem's layout")

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
// a handful of pivots each instead of the cold solve's thousands. Like
// every solve it returns an optimum of the perturbed costs, for PolishWith
// to make exact. A basis that does not fit p, and any numerical failure
// of the warm path, is an error: the caller restarts cold (SolveWith), as
// allot.SolveLPFrom does for every failed warm start. The returned
// Solution aliases workspace memory exactly like SolveWith.
//
//malsched:noalloc
func (p *Problem) SolveHotWith(ws *Workspace, bas *Basis) (*Solution, error) {
	if ws == nil {
		ws = NewWorkspace()
	}
	if bas == nil || bas.NVars != p.nvars || bas.NRows != len(p.cons) ||
		len(bas.Status) != bas.NVars+bas.NRows || p.nvars == 0 {
		ws.solvedRows = -1
		return nil, errBasisMismatch
	}
	ws.load(p, 0, false)
	n, m := ws.nstruct, ws.nrows
	ncols := n + m
	// Transplant the statuses. Nonbasic columns rest on a finite bound;
	// where the snapshot's resting side is infinite under p's bounds (a
	// bound became infinite, or row senses differ from the origin), snap
	// to the other side; a free column does not fit.
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
				return nil, errBasisMismatch
			}
			ws.status[j] = st
			if st == nbLower {
				ws.xval[j] = ws.lo[j]
			} else {
				ws.xval[j] = ws.hi[j]
			}
		default:
			return nil, errBasisMismatch
		}
	}
	if nbasic != m {
		return nil, errBasisMismatch
	}
	k := 0
	for j := 0; j < ncols; j++ {
		if ws.status[j] == stBasic {
			ws.basis[k] = int32(j)
			k++
		}
	}
	ws.setPhase2Cost(p)
	maxIter := ws.pivotBudget()
	if err := ws.factorize(); err != nil {
		if err == ErrSingular {
			err = ws.repairSingular()
		}
		if err != nil {
			return nil, err
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
	ws.perturbCosts(false)
	ws.recomputeDuals()
	iters, err := ws.primal(maxIter)
	ws.stats.Phase2Iters = iters
	if err != nil {
		return nil, err
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
			return nil, err
		}
	}
	return ws.finish(p)
}
