// The dense two-phase tableau solver, retained verbatim from the
// pre-sparse core as the differential-testing reference (the same role
// listsched.RunReference plays for the phase-2 scheduler): phase 1
// minimises the sum of artificial variables to find a basic feasible
// solution, phase 2 minimises the true objective. Dantzig pricing with a
// switch to Bland's rule after an iteration budget guarantees termination
// on degenerate problems. Variable bounds set with SetBounds are
// materialised as explicit constraint rows here (the tableau has no
// implicit-bound machinery), so the dense footprint grows with every
// bound while the sparse solver's does not — which is exactly the
// tradeoff the sparse core exists to remove.

package lp

import (
	"fmt"
	"math"
)

// ErrDenseBounds is returned by the dense reference for bound shapes it
// cannot express: tableau variables are implicitly non-negative, so a
// negative lower bound has no dense encoding.
var ErrDenseBounds = fmt.Errorf("lp: dense reference requires non-negative lower bounds")

// DenseWorkspace owns the dense solver's scratch memory: the tableau
// (backed by one flat buffer), the basis, the reduced-cost and cost rows,
// and the solution vector. Buffers grow geometrically and are reused
// across solves, so repeated SolveDenseWith calls on same-shaped problems
// do near-zero allocation. A DenseWorkspace is owned by one goroutine at
// a time; it is not safe for concurrent use.
type DenseWorkspace struct {
	flat   []float64   // backing array for the tableau rows
	rows   [][]float64 // row views into flat
	basis  []int
	red    []float64 // reduced-cost row
	cost   []float64 // current phase's cost row
	x      []float64 // solution values, aliased by Solution.X
	senses []Sense   // per-row sense after rhs normalisation
	cons   []constraint
	bterms []Term   // arena for synthesized bound-row terms
	sol    Solution // returned by SolveDenseWith; overwritten by the next call
	sx     simplex
}

// NewDenseWorkspace returns an empty workspace. The zero value is also
// ready to use.
func NewDenseWorkspace() *DenseWorkspace { return &DenseWorkspace{} }

// boundRows materialises the problem's non-default variable bounds as
// explicit constraint rows appended after p's own rows, reusing the
// workspace arenas. It returns ErrDenseBounds for negative lower bounds.
func (ws *DenseWorkspace) boundRows(p *Problem) error {
	ws.cons = append(ws.cons[:0], p.cons...)
	ws.bterms = ws.bterms[:0]
	for v := 0; v < p.nvars; v++ {
		if p.lo[v] < 0 {
			return fmt.Errorf("%w: variable %d has lower bound %v", ErrDenseBounds, v, p.lo[v])
		}
		if p.lo[v] > 0 {
			ws.bterms = append(ws.bterms, Term{Var: v, Coef: 1})
		}
		if !math.IsInf(p.hi[v], 1) {
			ws.bterms = append(ws.bterms, Term{Var: v, Coef: 1})
		}
	}
	// Second pass wires the term arena (stable now that it is fully grown).
	k := 0
	for v := 0; v < p.nvars; v++ {
		if p.lo[v] > 0 {
			ws.cons = append(ws.cons, constraint{terms: ws.bterms[k : k+1 : k+1], sense: GE, rhs: p.lo[v]})
			k++
		}
		if !math.IsInf(p.hi[v], 1) {
			ws.cons = append(ws.cons, constraint{terms: ws.bterms[k : k+1 : k+1], sense: LE, rhs: p.hi[v]})
			k++
		}
	}
	return nil
}

// SolveDenseWith runs two-phase dense simplex using ws's buffers (a nil ws
// behaves like SolveDense). The returned Solution and its X slice alias
// workspace memory and are invalidated by the next SolveDenseWith call on
// the same workspace; callers keeping results across solves must copy
// them out. The problem itself is never modified.
func (p *Problem) SolveDenseWith(ws *DenseWorkspace) (*Solution, error) {
	if ws == nil {
		ws = NewDenseWorkspace()
	}
	n := p.nvars
	if n == 0 {
		ws.sol = Solution{}
		return &ws.sol, nil
	}
	if err := ws.boundRows(p); err != nil {
		return nil, err
	}
	cons := ws.cons
	m := len(cons)

	// Pass 1: normalise senses (a negative rhs flips LE<->GE) and count the
	// slack/surplus and artificial columns.
	ws.senses = grow(ws.senses, m)
	nslack, nart := 0, 0
	for i, c := range cons {
		s := c.sense
		if c.rhs < 0 {
			switch s {
			case LE:
				s = GE
			case GE:
				s = LE
			}
		}
		ws.senses[i] = s
		if s != EQ {
			nslack++
		}
		if s != LE {
			nart++
		}
	}
	total := n + nslack + nart
	artStart := n + nslack
	stride := total + 1

	// Pass 2: write the tableau directly into the flat workspace buffer:
	// m rows x (total+1) columns, last column = rhs.
	ws.flat = grow(ws.flat, m*stride)
	clear(ws.flat)
	ws.rows = grow(ws.rows, m)
	for i := 0; i < m; i++ {
		ws.rows[i] = ws.flat[i*stride : (i+1)*stride : (i+1)*stride]
	}
	ws.basis = grow(ws.basis, m)
	si, ai := 0, 0
	for i, c := range cons {
		row := ws.rows[i]
		neg := c.rhs < 0
		for _, t := range c.terms {
			if neg {
				row[t.Var] -= t.Coef
			} else {
				row[t.Var] += t.Coef
			}
		}
		rhs := c.rhs
		if neg {
			rhs = -rhs
		}
		row[total] = rhs
		switch ws.senses[i] {
		case LE:
			row[n+si] = 1
			ws.basis[i] = n + si
			si++
		case GE:
			row[n+si] = -1
			si++
			row[artStart+ai] = 1
			ws.basis[i] = artStart + ai
			ai++
		case EQ:
			row[artStart+ai] = 1
			ws.basis[i] = artStart + ai
			ai++
		}
	}

	ws.red = grow(ws.red, total)
	ws.cost = grow(ws.cost, total)
	s := &ws.sx
	*s = simplex{t: ws.rows, basis: ws.basis, ncols: total, nrows: m, red: ws.red}

	stats := Stats{Rows: m, Cols: total}
	if nart > 0 {
		// Phase 1: minimise the sum of artificials.
		cost := ws.cost
		clear(cost)
		for j := artStart; j < total; j++ {
			cost[j] = 1
		}
		obj, err := s.run(cost, artStart) // artificials allowed in phase 1
		stats.Phase1Iters = s.iters
		if err != nil {
			return nil, fmt.Errorf("phase 1: %w", err)
		}
		if obj > 1e-7 {
			return nil, ErrInfeasible
		}
		// Pivot remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if s.basis[i] >= artStart {
				pivoted := false
				for j := 0; j < artStart; j++ {
					if math.Abs(s.t[i][j]) > 1e-7 {
						s.pivot(i, j)
						pivoted = true
						break
					}
				}
				if !pivoted {
					// Redundant row: zero it (keeps indices stable).
					for j := range s.t[i] {
						s.t[i][j] = 0
					}
				}
			}
		}
	}

	// Phase 2: minimise the real objective; artificial columns forbidden.
	cost := ws.cost
	clear(cost)
	copy(cost, p.obj)
	forbid := total
	if nart > 0 {
		forbid = artStart
	}
	if _, err := s.run(cost, forbid); err != nil {
		return nil, err
	}
	stats.Phase2Iters = s.iters

	ws.x = grow(ws.x, n)
	clear(ws.x)
	for i, b := range s.basis {
		if b < n {
			ws.x[b] = s.t[i][total]
		}
	}
	obj := 0.0
	for v, c := range p.obj {
		obj += c * ws.x[v]
	}
	ws.sol = Solution{X: ws.x, Obj: obj, Stats: stats}
	return &ws.sol, nil
}

// simplex holds the working tableau. Columns >= limit are not eligible to
// enter the basis (used to freeze artificials in phase 2).
type simplex struct {
	t     [][]float64
	basis []int
	red   []float64 // reduced-cost scratch row, len ncols
	nrows int
	ncols int
	iters int // pivots performed in the most recent run
}

// run minimises cost·x over the current tableau. It returns the achieved
// objective value. Columns with index >= limit may not enter the basis.
func (s *simplex) run(cost []float64, limit int) (float64, error) {
	s.iters = 0
	red := s.red
	s.reduce(cost)
	fresh := true // red was built from the tableau, not updated since

	maxIter := 200 * (s.nrows + s.ncols)
	blandAfter := 20 * (s.nrows + s.ncols)
	for iter := 0; iter < maxIter; iter++ {
		s.iters = iter + 1
		// Entering column.
		enter := -1
		if iter < blandAfter {
			best := -tol
			for j := 0; j < limit; j++ {
				if red[j] < best {
					best = red[j]
					enter = j
				}
			}
		} else { // Bland: first eligible index, guarantees termination
			for j := 0; j < limit; j++ {
				if red[j] < -tol {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			// Recompute the objective from the final basis for numerical
			// hygiene (the incrementally tracked offset can drift).
			obj := 0.0
			for i, b := range s.basis {
				obj += cost[b] * s.t[i][s.ncols]
			}
			return obj, nil
		}

		// Ratio test for the leaving row.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < s.nrows; i++ {
			a := s.t[i][enter]
			if a > tol {
				r := s.t[i][s.ncols] / a
				if r < bestRatio-tol || (r < bestRatio+tol && (leave < 0 || s.basis[i] < s.basis[leave])) {
					bestRatio = r
					leave = i
				}
			}
		}
		if leave < 0 {
			if fresh {
				return 0, ErrUnbounded
			}
			// The pivots' incremental updates can drift a zero reduced cost
			// past -tol on a column with no positive entry. Rebuild the row
			// from the tableau once and price again before believing it.
			s.reduce(cost)
			fresh = true
			continue
		}

		s.pivot(leave, enter)
		fresh = false
		// Update the reduced-cost row with the same elimination.
		f := red[enter]
		if f != 0 {
			prow := s.t[leave]
			for j := 0; j < s.ncols; j++ {
				red[j] -= f * prow[j]
			}
			red[enter] = 0
		}
	}
	return 0, ErrIterLimit
}

// reduce builds the reduced-cost row from the tableau:
// z_j = cost_j - cost_B · column_j for the current basis.
func (s *simplex) reduce(cost []float64) {
	red := s.red
	copy(red, cost)
	for i, b := range s.basis {
		cb := cost[b]
		if cb == 0 {
			continue
		}
		row := s.t[i]
		for j := 0; j < s.ncols; j++ {
			red[j] -= cb * row[j]
		}
	}
}

// pivot performs a Gauss-Jordan pivot on element (r, c).
func (s *simplex) pivot(r, c int) {
	prow := s.t[r]
	pv := prow[c]
	inv := 1 / pv
	for j := range prow {
		prow[j] *= inv
	}
	prow[c] = 1 // exact
	for i := 0; i < s.nrows; i++ {
		if i == r {
			continue
		}
		f := s.t[i][c]
		if f == 0 {
			continue
		}
		row := s.t[i]
		for j := range row {
			row[j] -= f * prow[j]
		}
		row[c] = 0 // exact
	}
	s.basis[r] = c
}
