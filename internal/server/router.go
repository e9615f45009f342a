package server

import (
	"fmt"
	"time"

	"malsched"
	"malsched/internal/allot"
)

// Adaptive solver routing: requests that do not pin an algorithm are routed
// by instance size and the request's latency deadline. The paper algorithm
// gives the best schedules (and the only certified ratio) but its phase-1
// LP grows roughly quadratically in the task count; greedy critical-path is
// near-linear and is the fallback when a deadline or the size budget leaves
// no room for an LP.
//
// LTW is deliberately NOT an auto-routing target: it solves the same
// phase-1 LP as the paper algorithm (internal/baseline.LTWWith differs only
// in rounding and allotment cap), so it costs the same and certifies a
// worse ratio — measured on a layered n=96/m=16 instance: paper 18.2 ms,
// LTW 20.6 ms, greedy 4.1 ms (E12). It stays reachable by pinning
// "algo": "ltw" (the comparison baseline of the paper's Table 3).
//
// The cost model is a two-regime fit of the committed benchmarks
// (EXPERIMENTS.md E13/E16, Xeon 2.10GHz). In the simplex regime (small
// segment mass: the lazy formulation) BenchmarkPhase1LP runs at
// ~0.5 µs·n² around n=200 up to ~2.7 µs·n² at n=2000, and the
// coefficient is pinned near the top of that band so deadline estimates
// stay conservative at the scales where overshooting hurts most. Past
// allot.MincutFormulationMin frontier segments phase 1 is the parametric
// sweep instead, measured at ~0.28 µs·n² (n=2000/m=64) to ~0.46 µs·n²
// (n=10000/m=64) — the large-n coefficient sits above that band too.
// Deadlines only reroute when the estimate overshoots them outright.
const (
	// paperNSPerN2 estimates a simplex-regime paper solve at
	// paperNSPerN2 * n^2 ns.
	paperNSPerN2 = 2600
	// mincutNSPerN2 is the same estimate once the instance lands in the
	// min-cut window.
	mincutNSPerN2 = 600
	// autoPaperBudget caps the paper algorithm's estimate for
	// deadline-free auto requests — the most a serving worker should
	// sink into one unconstrained request. With phase 1 on the
	// parametric sweep this admits n = 10000 at the benchmark shapes
	// (estimate 60 s, measured 46 s — E16); small-m instances, which
	// never leave the simplex regime, hit the same wall near n = 4800.
	autoPaperBudget = 60 * time.Second
)

// paperEstimate predicts a paper solve's latency from the shape the
// router can see without building anything: task count and machine
// count. The router cannot afford to build frontiers just to route, so
// the segment mass it compares with allot's threshold is estimated at
// ~2/3 segments per task per machine less one — the density measured on
// the mixed-family benchmark instances (~41 of 63 at m=64).
func paperEstimate(n, m int) time.Duration {
	coef := int64(paperNSPerN2)
	if segs := 2 * (m - 1) / 3; segs >= 1 && n*segs >= allot.MincutFormulationMin {
		coef = mincutNSPerN2
	}
	return time.Duration(coef * int64(n) * int64(n))
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

// route picks the algorithm for one request. pinned != nil forces that
// algorithm; deadline <= 0 means unconstrained.
func route(in *malsched.Instance, pinned *malsched.Algorithm, deadline time.Duration) routeDecision {
	if pinned != nil {
		return routeDecision{algo: *pinned, reason: "pinned by request"}
	}
	n := len(in.Tasks)
	paperEst := paperEstimate(n, in.M)

	if deadline > 0 {
		if paperEst <= deadline {
			return routeDecision{algo: malsched.AlgoPaper, routed: true,
				reason: fmt.Sprintf("paper estimate %v within deadline %v", paperEst, deadline)}
		}
		return routeDecision{algo: malsched.AlgoGreedyCP, routed: true, downgraded: true,
			reason: fmt.Sprintf("paper estimate %v over deadline %v", paperEst, deadline)}
	}
	if paperEst <= autoPaperBudget {
		return routeDecision{algo: malsched.AlgoPaper, routed: true,
			reason: fmt.Sprintf("paper estimate %v within the unconstrained budget %v", paperEst, autoPaperBudget)}
	}
	return routeDecision{algo: malsched.AlgoGreedyCP, routed: true,
		reason: fmt.Sprintf("paper estimate %v over the unconstrained budget %v", paperEst, autoPaperBudget)}
}
