package server

import (
	"math/rand"
	"testing"
	"time"

	"malsched"
	"malsched/internal/dag"
	"malsched/internal/gen"
	"malsched/internal/prep"
)

// routeInstance builds a shape-only instance of independent tasks; the
// router looks at counts and depth, not processing times, so
// one-processor tasks suffice.
func routeInstance(n, m int) *malsched.Instance {
	tasks := make([]malsched.Task, n)
	for i := range tasks {
		tasks[i] = malsched.PowerLawTask("t", 1, 0.5, m)
	}
	return &malsched.Instance{M: m, Tasks: tasks}
}

// routeChain is routeInstance with the tasks chained: depth n.
func routeChain(n, m int) *malsched.Instance {
	in := routeInstance(n, m)
	for v := 0; v+1 < n; v++ {
		in.Edges = append(in.Edges, [2]int{v, v + 1})
	}
	return in
}

func TestRoutePinnedWins(t *testing.T) {
	algo := malsched.AlgoFullAllotment
	dec := route(routeInstance(100000, 64), &algo, time.Microsecond)
	if dec.algo != malsched.AlgoFullAllotment || dec.routed {
		t.Errorf("pinned request was rerouted: %+v", dec)
	}
}

func TestRouteBySize(t *testing.T) {
	cases := []struct {
		n, m  int
		chain bool
		want  malsched.Algorithm
	}{
		{10, 8, false, malsched.AlgoPaper},
		// Independent tasks are as wide as a DAG gets, so they run the
		// sweep: 600 ns * n^2 admits exactly n = 10000.
		{10000, 8, false, malsched.AlgoPaper},
		{10001, 8, false, malsched.AlgoGreedyCP},
		// A chain is as deep as a DAG gets and stays on the simplex
		// (m·D² = 2n² > 1.5n² at m=2), so the same budget cuts off near
		// n = 4800.
		{4800, 2, true, malsched.AlgoPaper},
		{5000, 2, true, malsched.AlgoGreedyCP},
	}
	for _, c := range cases {
		in := routeInstance(c.n, c.m)
		if c.chain {
			in = routeChain(c.n, c.m)
		}
		dec := route(in, nil, 0)
		if dec.algo != c.want || !dec.routed {
			t.Errorf("n=%d: routed to %v (routed=%v), want %v", c.n, dec.algo, dec.routed, c.want)
		}
		if dec.reason == "" {
			t.Errorf("n=%d: empty route reason", c.n)
		}
	}
}

func TestRouteByDeadline(t *testing.T) {
	in := routeInstance(100, 16) // paper estimate 2600ns * 100^2 = 26ms
	cases := []struct {
		deadline time.Duration
		want     malsched.Algorithm
	}{
		{time.Second, malsched.AlgoPaper},
		{time.Millisecond, malsched.AlgoGreedyCP},
	}
	for _, c := range cases {
		dec := route(in, nil, c.deadline)
		if dec.algo != c.want {
			t.Errorf("deadline %v: routed to %v, want %v", c.deadline, dec.algo, c.want)
		}
	}
}

// TestRouteByDepth: with a deadline between the two engines' estimates,
// the depth decides. At n=100/m=16 the sweep's estimate is 6 ms and the
// simplex's 26 ms; a 10 ms deadline admits the wide instance, which
// allot.UseMincut sends to the sweep, and downgrades the chain, which it
// keeps on the simplex.
func TestRouteByDepth(t *testing.T) {
	const deadline = 10 * time.Millisecond
	if dec := route(routeInstance(100, 16), nil, deadline); dec.algo != malsched.AlgoPaper || dec.downgraded {
		t.Errorf("wide instance: routed to %v (downgraded=%v, %s), want paper", dec.algo, dec.downgraded, dec.reason)
	}
	if dec := route(routeChain(100, 16), nil, deadline); dec.algo != malsched.AlgoGreedyCP || !dec.downgraded {
		t.Errorf("chain: routed to %v (downgraded=%v, %s), want a greedy downgrade", dec.algo, dec.downgraded, dec.reason)
	}
}

// TestDepthTotal: route sees requests before validation, so the depth
// pass must take any edge list without panicking. Out-of-range edges and
// self-loops are skipped, and tasks on or behind a cycle are not counted.
func TestDepthTotal(t *testing.T) {
	for _, c := range []struct {
		name  string
		n     int
		edges [][2]int
		want  int
	}{
		{"empty", 0, nil, 0},
		{"edges on no tasks", 0, [][2]int{{0, 1}, {-1, 2}}, 0},
		{"independent", 3, nil, 1},
		{"chain with duplicates", 3, [][2]int{{0, 1}, {1, 2}, {0, 1}}, 3},
		{"out of range", 3, [][2]int{{0, 1}, {1, 3}, {-1, 0}, {2, 1 << 40}}, 2},
		{"self-loop", 3, [][2]int{{0, 1}, {1, 1}, {1, 2}}, 3},
		{"cycle", 4, [][2]int{{0, 1}, {1, 2}, {2, 1}, {2, 3}}, 1},
		{"cycle beside a chain", 5, [][2]int{{0, 1}, {1, 0}, {2, 3}, {3, 4}}, 3},
	} {
		in := routeInstance(c.n, 4)
		in.Edges = c.edges
		if got := depth(in); got != c.want {
			t.Errorf("%s: depth %d, want %d", c.name, got, c.want)
		}
	}

	// On valid instances it is the depth allot routes by.
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*dag.DAG{gen.Layered(30, 4, 3, rng), gen.ErdosDAG(120, 0.1, rng), gen.Chain(7), gen.Independent(5)} {
		in := routeInstance(g.N(), 4)
		in.Edges = g.Edges()
		if got, want := depth(in), prep.NewWorkspace().Depth(g); got != want {
			t.Errorf("n=%d: depth %d, prep says %d", g.N(), got, want)
		}
	}
}
