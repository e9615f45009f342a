// Package baseline implements the comparison algorithms: the
// Lepère–Trystram–Woeginger (LTW) two-phase algorithm of [18] whose
// approximation ratios the paper lists in Table 3 (asymptotically
// 3 + sqrt(5) ~= 5.236), and naive heuristics (sequential, full-allotment,
// and a greedy critical-path allotment) that bracket the solution quality in
// the empirical study.
//
// Substitution note (see DESIGN.md): LTW's first phase originally solves a
// discrete time-cost tradeoff problem with Skutella's algorithm. Under this
// paper's stronger Assumption 2 the allotment problem is the exact LP (9),
// so our LTW implementation reuses the same LP phase 1 and keeps LTW's
// rho = 1/2 rounding and its allotment cap mu_LTW(m). This can only help
// the baseline, making comparisons against it conservative.
package baseline

import (
	"math"

	"malsched/internal/allot"
	"malsched/internal/cancelflag"
	"malsched/internal/core"
	"malsched/internal/solver"
)

// LTWRatio returns the proven approximation ratio of the LTW algorithm for
// machine size m together with its optimal allotment threshold mu:
//
//	r(m) = min_mu max{ (4m - 2mu)/(m - mu + 1), 2m/mu }.
//
// This reproduces Table 3 of the paper; as m -> infinity the optimal
// mu/m -> (3 - sqrt(5))/2 and r -> 3 + sqrt(5).
func LTWRatio(m int) (mu int, r float64) {
	mu, r = 1, math.Inf(1)
	for cand := 1; cand <= m; cand++ {
		a := (4*float64(m) - 2*float64(cand)) / (float64(m) - float64(cand) + 1)
		b := 2 * float64(m) / float64(cand)
		v := math.Max(a, b)
		if v < r-1e-12 {
			mu, r = cand, v
		}
	}
	return mu, r
}

// LTW runs the Lepère–Trystram–Woeginger two-phase algorithm: phase 1 via
// the shared LP with rho = 1/2 rounding, allotments capped at mu_LTW(m),
// then LIST. It is core's pipeline with those two parameters, so the
// result's Params.R is the Theorem 4.1 objective at them, not LTW's
// proven ratio (LTWRatio).
func LTW(in *allot.Instance) (*core.Result, error) { return LTWWith(in, nil) }

// LTWWith is LTW with a reusable cross-phase workspace (nil behaves like
// LTW): both the LP solve and the list scheduling run warm.
func LTWWith(in *allot.Instance, ws *solver.Workspace) (*core.Result, error) {
	mu, _ := LTWRatio(in.M)
	return core.SolveWith(in, core.Options{Rho: 0.5, RhoSet: true, Mu: mu}, ws)
}

// Sequential schedules every task on a single processor with LIST: the
// no-malleability baseline.
func Sequential(in *allot.Instance) (*core.Result, error) { return SequentialWith(in, nil) }

// SequentialWith is Sequential with a reusable workspace.
func SequentialWith(in *allot.Instance, ws *solver.Workspace) (*core.Result, error) {
	return core.ScheduleWith(in, uniform(in.G.N(), 1), ws)
}

// FullAllotment gives every task all m processors, serialising the whole
// DAG: the maximum-parallelism-per-task baseline.
func FullAllotment(in *allot.Instance) (*core.Result, error) { return FullAllotmentWith(in, nil) }

// FullAllotmentWith is FullAllotment with a reusable workspace.
func FullAllotmentWith(in *allot.Instance, ws *solver.Workspace) (*core.Result, error) {
	return core.ScheduleWith(in, uniform(in.G.N(), in.M), ws)
}

// uniform returns an allotment of l processors for each of n tasks.
func uniform(n, l int) []int {
	alpha := make([]int, n)
	for j := range alpha {
		alpha[j] = l
	}
	return alpha
}

// GreedyCP iteratively shortens the critical path: starting from
// single-processor allotments, it repeatedly grants one more processor to
// the task on the current critical path with the best marginal gain, while
// the average load W/m stays below the critical-path length. A natural
// practitioner's heuristic with no worst-case guarantee.
func GreedyCP(in *allot.Instance) (*core.Result, error) { return GreedyCPWith(in, nil) }

// GreedyCPWith is GreedyCP with a reusable workspace. The allotment loop
// polls the workspace's cancellation flag once per grant.
func GreedyCPWith(in *allot.Instance, ws *solver.Workspace) (*core.Result, error) {
	alpha, err := greedyAllotment(in, ws.CancelFlag())
	if err != nil {
		return nil, err
	}
	return core.ScheduleWith(in, alpha, ws)
}

// greedyAllotment computes GreedyCP's allotment. Each grant re-runs the
// longest-path pass over one topological order computed up front, with
// only the granted task's duration changed, so a grant costs O(n+E)
// without allocating; there are up to n·m grants (about 4n on layered
// shapes). cancel (nil-safe) is polled once per grant, one atomic load
// per O(n+E) pass; a set flag returns cancelflag.ErrCanceled.
func greedyAllotment(in *allot.Instance, cancel *cancelflag.Flag) ([]int, error) {
	n := in.G.N()
	order, err := in.G.TopoOrder()
	if err != nil {
		return nil, err
	}
	alpha := uniform(n, 1)
	d := make([]float64, n) // current durations
	dist := make([]float64, n)
	from := make([]int, n)
	work := 0.0
	for j := range alpha {
		d[j] = in.Tasks[j].Time(1)
		work += in.Tasks[j].Work(1)
	}
	for iter := 0; iter < n*in.M; iter++ {
		if cancel.Canceled() {
			return nil, cancelflag.ErrCanceled
		}
		end := in.G.LongestPaths(order, d, dist, from) // n >= 1 here
		if work/float64(in.M) >= dist[end] {
			break // load-balanced: more processors only add overhead
		}
		// Best marginal time reduction per unit of extra work on the
		// critical path, walked from its end: >= keeps the first maximum
		// from its start, as dag.CriticalPath lists the path.
		bestJ, bestGain := -1, 0.0
		for j := end; j >= 0; j = from[j] {
			if alpha[j] >= in.M {
				continue
			}
			dt := in.Tasks[j].Time(alpha[j]) - in.Tasks[j].Time(alpha[j]+1)
			dw := in.Tasks[j].Work(alpha[j]+1) - in.Tasks[j].Work(alpha[j])
			if gain := dt / (1 + dw); gain > 0 && gain >= bestGain {
				bestJ, bestGain = j, gain
			}
		}
		if bestJ < 0 {
			break
		}
		work += in.Tasks[bestJ].Work(alpha[bestJ]+1) - in.Tasks[bestJ].Work(alpha[bestJ])
		alpha[bestJ]++
		d[bestJ] = in.Tasks[bestJ].Time(alpha[bestJ])
	}
	return alpha, nil
}

// Table3Row is one row of Table 3 of the paper.
type Table3Row struct {
	M  int
	Mu int
	R  float64
}

// Table3 regenerates Table 3 (the LTW ratios) for m = 2..maxM.
func Table3(maxM int) []Table3Row {
	rows := make([]Table3Row, 0, maxM-1)
	for m := 2; m <= maxM; m++ {
		mu, r := LTWRatio(m)
		rows = append(rows, Table3Row{M: m, Mu: mu, R: r})
	}
	return rows
}
