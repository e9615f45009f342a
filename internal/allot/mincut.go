// The parametric min-cut ("mincut") formulation of LP (9). LP (9) is
// exactly the classical project-crashing LP: minimise
// C = max(L(x), W(x)/m) where L is the critical-path length of the
// activity network under processing times x and W the total work, with
// each task's work a convex piecewise-linear non-increasing function of
// its time. Fulkerson's parametric min-cut sweep (internal/flow) traces
// phi(lambda) = min{W : L(x) <= lambda} downward from the uncrashed
// critical path, one min-cut breakpoint at a time, and stops at the
// crossing of m*lambda with phi — the optimum of the max — in
// near-linear time per breakpoint, with no simplex involved at all.
//
// The network is the standard activity-on-arc expansion of the reduced
// DAG: task j becomes arc in_j -> out_j with base duration XMax_j and a
// crashing curve read off the same slope-representative work envelope
// the lazy simplex optimises (repFill below, on allot.go's eachRep — the
// one slope collapse makes every formulation solve the identical
// relaxation, which is what the differential suite pins); precedence
// (i,j) becomes the rigid zero-length arc out_i -> in_j, DAG sources hang
// off the super-source S and sinks feed the super-sink T, mirroring row
// for row how buildBaseLP emits x_j <= C_j only for sources and
// C_j <= L only for sinks.
//
// Two kinds of start node are merged away: a source task starts at S
// itself and a task with one predecessor i at out_i, so only tasks with
// two or more predecessors keep an in_j and rigid arcs into it, and the
// network has 2 + n + (such tasks) nodes. The merge is exact, because a
// node whose only in-arc is rigid always sits on its tail's side of the
// cut: with the tail in R the tight rigid arc has infinite forward
// residual, and with the head in R, conservation puts the head's task
// flow on the rigid arc, whose backward residual reaches the tail. So no
// cut, event or crash changes (TestMincutMergeExact checks it against
// the uncontracted network). The mirror merges, of an end node into its
// one successor's start or of a sink task's end into T, are not exact:
// an end node whose task carries no flow can sit on the sink side while
// its out-arc's head is in R, and merging the two lets the sweep put a
// zero-rate crash elsewhere, an equally optimal point with other
// makespans.
//
// The payoff over the simplex is structural on wide DAGs: a simplex
// solve pays a pivot per envelope piece the optimum crosses against an
// ever-growing basis factorization, while the sweep pays roughly one
// warm augmenting path per parametric breakpoint on a graph of at most
// 2n+2 nodes — layered n=2000/m=64 drops from ~18 s (lazy) to ~1.1 s,
// measured back to back on the same machine, and n=10^4 lands in
// ~46 s where the simplex never finished (EXPERIMENTS.md E16). Deep
// DAGs are the exception: their breakpoint count grows with depth, and
// there the lazy simplex can win by an order of magnitude (E17). So the
// auto route sends a DAG here only when it is wide for its size and
// machine count (UseMincut below, fitted on the E20 grid).

package allot

import (
	"fmt"

	"malsched/internal/malleable"
)

// mincutWidthC is the constant c of UseMincut, fitted on the E20 grid
// (EXPERIMENTS.md): every c in [1.4, 2) routes 104 of its 110 shapes
// within 1.25× of the faster engine, and none of them more than 1.07×
// slower than under the segment-mass rule it replaced.
const mincutWidthC = 1.5

// UseMincut is the one phase-1 engine predicate: an instance of n tasks
// on m machines whose longest path holds depth tasks goes to the sweep
// when m·depth² <= c·n², and to the lazy simplex otherwise. Put
// differently, the sweep takes every DAG whose mean width n/depth is at
// least √(m/c). The sweep's cost follows its breakpoints, which grow
// with depth and with the pieces per task (about m), while the simplex
// pays for the whole basis (about n): a free least-squares fit of
// log(t_mincut/t_lazy) over the E20 grid gives the exponents 2.3 on
// depth, −2.2 on n and 1.3 on m, close to this form. SolveLPFormulation's
// auto route, the server router's cost model and its degradation ladder
// all decide with it.
func UseMincut(n, m, depth int) bool {
	d := float64(depth)
	return float64(m)*d*d <= mincutWidthC*float64(n)*float64(n)
}

// solveLPMincut builds the project-crashing network for the instance
// and runs the parametric sweep. fronts are the instance's efficient
// frontiers (already computed into ws).
func solveLPMincut(in *Instance, ws *Workspace, fronts []malleable.Frontier) (*Fractional, error) {
	n := in.G.N()
	fw := &ws.Flow
	fw.Cancel = ws.LP.Cancel
	const src, snk = 0, 1
	// Task j ends at node 2+j and starts at S, at its one predecessor's
	// end, or, with two or more predecessors, at a node of its own.
	start := growInt32(ws.mcStart, n)
	nodes := 2 + n
	for j := 0; j < n; j++ {
		switch preds := in.G.Preds(j); len(preds) {
		case 0:
			start[j] = src
		case 1:
			start[j] = int32(2 + preds[0])
		default:
			start[j] = int32(nodes)
			nodes++
		}
	}
	ws.mcStart = start
	fw.Reset(nodes)
	taskArc := growInt32(ws.mcArc, n)
	wfloor := 0.0
	for j := 0; j < n; j++ {
		f := &fronts[j]
		wfloor += f.W[0]
		taskArc[j] = int32(fw.Arc(int(start[j]), 2+j, f.XMax()))
		if f.Segments() >= 1 {
			sigmas := ws.repFill(f)
			for k := range sigmas {
				fw.Piece(sigmas[k], ws.repWidth[k])
			}
		}
		for _, s := range in.G.Succs(j) {
			if int(start[s]) != 2+j { // a successor starting at j's end needs no arc
				fw.Arc(2+j, int(start[s]), 0)
			}
		}
		if len(in.G.Succs(j)) == 0 {
			fw.Arc(2+j, snk, 0)
		}
	}
	ws.mcArc = taskArc

	c, err := fw.Sweep(src, snk, float64(in.M), wfloor)
	if err != nil {
		return nil, fmt.Errorf("allot: LP (9) mincut formulation failed: %w", err)
	}

	out := &Fractional{
		X:           make([]float64, n),
		Wbar:        make([]float64, n),
		LStar:       make([]float64, n),
		C:           c,
		L:           fw.Lambda,
		Formulation: FormulationMincut,
		Cuts:        fw.Breakpoints,
		Rounds:      fw.Augments,
	}
	for j := 0; j < n; j++ {
		f := &fronts[j]
		out.X[j] = clamp(f.XMax()-fw.Y(int(taskArc[j])), f.XMin(), f.XMax())
		out.Wbar[j] = f.WorkAt(out.X[j])
		out.W += out.Wbar[j]
		out.LStar[j] = f.FractionalAlloc(out.X[j])
	}
	return out, nil
}

// repFill computes f's downward envelope fill pieces into the shared
// scratch: piece k carries the k-th shallowest slope-representative
// supporting line (eachRep, the lazy path's cut filter),
// sigma_k = |slope| of that line, and repWidth[k] the piece's x-extent
// below XMax, cut at the intersections of consecutive lines and clamped
// into [XMin, XMax] so roundoff can never produce a negative width.
// Returns the sigmas; widths are in ws.repWidth.
func (ws *Workspace) repFill(f *malleable.Frontier) []float64 {
	slopes := ws.repSlope[:0]
	icpts := ws.repIcpt[:0]
	eachRep(f, func(_ int, slope, icpt float64) {
		slopes = append(slopes, slope)
		icpts = append(icpts, icpt)
	})
	r := len(slopes)
	widths := grown(ws.repWidth, r)
	prev := f.XMax()
	for k := 0; k < r; k++ {
		low := f.XMin()
		if k < r-1 {
			// Crossing of line k with the next-steeper line k+1.
			low = (icpts[k+1] - icpts[k]) / (slopes[k] - slopes[k+1])
		}
		if low > prev {
			low = prev
		}
		if low < f.XMin() {
			low = f.XMin()
		}
		widths[k] = prev - low
		slopes[k] = -slopes[k] // sigma: positive work rise per unit drop
		prev = low
	}
	ws.repSlope, ws.repIcpt, ws.repWidth = slopes, icpts, widths
	return slopes
}
