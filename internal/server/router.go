package server

import (
	"time"

	"malsched"
	"malsched/internal/allot"
)

// Adaptive solver routing: requests that do not pin an algorithm are routed
// by instance size and the request's latency deadline. The paper algorithm
// gives the best schedules (and the only certified ratio) but its phase-1
// LP grows roughly quadratically in the task count; greedy critical path
// is the fallback when a deadline or the size budget leaves no room for
// an LP. Greedy is quadratic too, O(grants·(n+E)) with about 4n grants on
// layered shapes, but cheaper: about 0.25 s at n=2000/m=64, 2 s at n=5000
// and 13 s at n=10⁴ (DESIGN.md §8).
//
// LTW is deliberately NOT an auto-routing target: it solves the same
// phase-1 LP as the paper algorithm (internal/baseline.LTWWith is core's
// pipeline at rho = 1/2 and mu_LTW(m)), so it costs the same and certifies a
// worse ratio — measured on a layered n=96/m=16 instance: paper 18.2 ms,
// LTW 20.6 ms, greedy 4.1 ms (E12). It stays reachable by pinning
// "algo": "ltw" (the comparison baseline of the paper's Table 3).
//
// The cost model is a two-regime fit of the committed benchmarks
// (EXPERIMENTS.md E13/E16, Xeon 2.10GHz), one coefficient per phase-1
// engine, and allot.UseMincut (the predicate allot's own auto route
// applies) picks which. On the lazy simplex BenchmarkPhase1LP ran at
// ~0.5 µs·n² around n=200 up to ~2.7 µs·n² at n=2000, and the
// coefficient is pinned near the top of that band so deadline estimates
// stay conservative at the scales where overshooting hurts most. The
// parametric sweep was measured at ~0.28 µs·n² (n=2000/m=64) to
// ~0.46 µs·n² (n=10000/m=64) — its coefficient sits above that band
// too. Deadlines only reroute when the estimate overshoots them
// outright.
const (
	// paperNSPerN2 estimates a paper solve on the lazy simplex at
	// paperNSPerN2 * n^2 ns.
	paperNSPerN2 = 2600
	// mincutNSPerN2 is the same estimate for a solve allot.UseMincut
	// sends to the sweep.
	mincutNSPerN2 = 600
	// autoPaperBudget caps the paper algorithm's estimate for
	// deadline-free auto requests — the most a serving worker should
	// sink into one unconstrained request. With phase 1 on the
	// parametric sweep this admits n = 10000 at the benchmark shapes
	// (estimate 60 s, measured 46 s — E16); deep instances, which stay
	// on the simplex, hit the same wall near n = 4800.
	autoPaperBudget = 60 * time.Second
)

// rungPriced reports whether the engine rung's price, paperNSPerN2·n²
// for either engine, was measured at an n-task, m-machine instance's
// size: its estimated frontier segment mass, ~2/3 segments per task per
// machine less one (the density of the mixed-family benchmark
// instances, ~41 of 63 at m=64), stays under 6000. Past it the record
// has lazy at up to 5.5× that price and deep sweeps at 2.7× (DESIGN.md
// §9), so the ladder goes to greedy there.
func rungPriced(n, m int) bool {
	segs := 2 * (m - 1) / 3
	return segs < 1 || n*segs < 6000
}

// paperEstimate predicts a paper solve's latency from its shape: n tasks
// on m machines, depth tasks on the longest path. allot.UseMincut picks
// the engine and so the coefficient.
func paperEstimate(n, m, depth int) time.Duration {
	coef := int64(paperNSPerN2)
	if allot.UseMincut(n, m, depth) {
		coef = mincutNSPerN2
	}
	return time.Duration(coef * int64(n) * int64(n))
}

// depth returns the number of tasks on a longest path of in's DAG: the D
// of allot.UseMincut, computed from the request as posted. It is total on
// unvalidated input, because route sees the instance before validation:
// edges out of range and self-loops are skipped, and tasks on or behind
// a cycle are not counted. Such an instance fails validation before any
// solve, so its depth only ever sizes an estimate.
func depth(in *malsched.Instance) int {
	n := len(in.Tasks)
	valid := func(e [2]int) bool {
		return e[0] >= 0 && e[0] < n && e[1] >= 0 && e[1] < n && e[0] != e[1]
	}
	// Successor lists in one slab: once filled, succ[off[v]:off[v+1]].
	off := make([]int32, n+2)
	indeg := make([]int32, n)
	for _, e := range in.Edges {
		if valid(e) {
			off[e[0]+2]++
			indeg[e[1]]++
		}
	}
	for v := 2; v < n+2; v++ {
		off[v] += off[v-1]
	}
	succ := make([]int32, off[n+1])
	for _, e := range in.Edges {
		if valid(e) {
			succ[off[e[0]+1]] = int32(e[1])
			off[e[0]+1]++
		}
	}
	// Kahn's order; reach[v] is the longest path into v, final once v
	// leaves the queue.
	queue := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	reach := make([]int32, n)
	best := int32(0)
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		d := reach[v] + 1
		best = max(best, d)
		for _, s := range succ[off[v]:off[v+1]] {
			reach[s] = max(reach[s], d)
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return int(best)
}

// routeDecision records what the router chose and why; reason strings are
// stable enough to assert on and informative enough to return to clients.
type routeDecision struct {
	algo   malsched.Algorithm
	routed bool // false when the request pinned the algorithm
	reason string
	// downgraded marks a deadline-forced drop from the paper algorithm to
	// greedy: the request wanted the best answer but could not wait for
	// it. This is the v2 API's refine-behind trigger — answer greedy now,
	// queue a paper solve into spare pool capacity for next time.
	downgraded bool
}

// budgetText names the unconstrained budget in route reasons.
var budgetText = "the unconstrained budget " + autoPaperBudget.String()

// route picks the algorithm for one request. pinned != nil forces that
// algorithm; deadline <= 0 means unconstrained. Both engines' estimates
// are known from n alone; route computes the depth, an O(n+E) pass with
// allocations, only when they fall on opposite sides of the limit, so a
// cache hit on a request whose limit both or neither engine fits pays
// nothing for it. The reason then reports the bound that decided: the
// lazy estimate as "at most" when both fit, the sweep's as "at least"
// when neither does. It is built by concatenation: fmt would box each
// argument, and route runs on every cache hit.
func route(in *malsched.Instance, pinned *malsched.Algorithm, deadline time.Duration) routeDecision {
	if pinned != nil {
		return routeDecision{algo: *pinned, reason: "pinned by request"}
	}
	limit := autoPaperBudget
	if deadline > 0 {
		limit = deadline
	}
	n := len(in.Tasks)
	n2 := int64(n) * int64(n)
	est, qual := time.Duration(paperNSPerN2*n2), "at most "
	if sweep := time.Duration(mincutNSPerN2 * n2); sweep > limit {
		est, qual = sweep, "at least "
	} else if est > limit {
		est, qual = paperEstimate(n, in.M, depth(in)), ""
	}
	dec := routeDecision{algo: malsched.AlgoPaper, routed: true}
	verdict := " within "
	if est > limit {
		dec.algo, dec.downgraded, verdict = malsched.AlgoGreedyCP, deadline > 0, " over "
	}
	if deadline > 0 {
		dec.reason = "paper estimate " + qual + est.String() + verdict + "deadline " + deadline.String()
	} else {
		dec.reason = "paper estimate " + qual + est.String() + verdict + budgetText
	}
	return dec
}
