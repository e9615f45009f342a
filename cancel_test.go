package malsched

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"malsched/internal/gen"
)

// layeredInstance builds the bench suite's layered shape (width 20, fan-in
// 3, mixed task families) as a public Instance.
func layeredInstance(n, m int, seed int64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	const w = 20
	g := gen.Layered(n/w, w, 3, rng)
	ai := gen.Instance(g, gen.FamilyMixed, m, rng)
	in := &Instance{M: m, Tasks: ai.Tasks}
	for v := 0; v < g.N(); v++ {
		for _, succ := range g.Succs(v) {
			in.Edges = append(in.Edges, [2]int{v, succ})
		}
	}
	return in
}

// A solve submitted with an already-cancelled context must fail with the
// context's error immediately — no worker slot, no validation, no solve.
func TestPoolSolveAlreadyCancelled(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	in := layeredInstance(40, 8, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, algo := range []Algorithm{AlgoPaper, AlgoGreedyCP} {
		t0 := time.Now()
		res, err := p.SolveAlgo(ctx, algo, in)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%v: err = %v, want context.Canceled", algo, err)
		}
		if res != nil {
			t.Fatalf("%v: got a result from a cancelled solve", algo)
		}
		if d := time.Since(t0); d > 100*time.Millisecond {
			t.Fatalf("%v: cancelled solve took %v, want immediate return", algo, d)
		}
	}
}

// The acceptance bar for cancellation latency: a cold paper solve of the
// n=2000/m=64 layered scenario must return within cancelLatencyBudget of
// its context being cancelled (the budget is build-dependent — see
// cancel_budget_*_test.go). The solver polls its cancel flag every simplex
// pivot and every 1024 phase-2 scheduling steps, so the bound holds no
// matter where in the pipeline the cancellation lands.
func TestPaperSolveCancelsWithinBudget(t *testing.T) {
	cancelWithinBudget(t, AlgoPaper, layeredInstance(2000, 64, 9))
}

// Greedy is what the router's deadline downgrade and the ladder's last
// rung run. Its allotment loop makes up to n·m grants of one O(n+E)
// longest-path pass each and polls the cancel flag once per grant, so a
// greedy solve of layered n=5000/m=64 (about 2 s) aborts within the same
// budget.
func TestGreedySolveCancelsWithinBudget(t *testing.T) {
	cancelWithinBudget(t, AlgoGreedyCP, layeredInstance(5000, 64, 9))
}

// cancelWithinBudget starts an algo solve of in on a one-worker pool,
// cancels it 250 ms in, and requires context.Canceled within
// cancelLatencyBudget of the cancellation.
func cancelWithinBudget(t *testing.T, algo Algorithm, in *Instance) {
	t.Helper()
	p := NewPool(1)
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		err error
		at  time.Time
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := p.SolveAlgo(ctx, algo, in)
		done <- outcome{err: err, at: time.Now()}
	}()

	// Let the solve get well inside its main loop before pulling the plug.
	time.Sleep(250 * time.Millisecond)
	select {
	case o := <-done:
		// The machine solved the instance faster than the warm-up sleep;
		// nothing to cancel. The budget assertion is vacuous here, but
		// the pre-cancelled path is covered above.
		if o.err != nil {
			t.Fatalf("%v solve failed before cancellation: %v", algo, o.err)
		}
		t.Skipf("%v solve finished before cancellation could be exercised", algo)
	default:
	}
	cancelled := time.Now()
	cancel()
	o := <-done
	if !errors.Is(o.err, context.Canceled) {
		t.Fatalf("%v: err = %v, want context.Canceled", algo, o.err)
	}
	if lat := o.at.Sub(cancelled); lat > cancelLatencyBudget {
		t.Fatalf("%v solve took %v to abort after cancellation (budget %v)", algo, lat, cancelLatencyBudget)
	}
}
