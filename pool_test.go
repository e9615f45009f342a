package malsched

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"malsched/internal/flow"
	"malsched/internal/gen"
)

// testBatch loads every canned instance (plus a few synthetic ones) as the
// reference batch for pool tests.
func testBatch(t *testing.T) []*Instance {
	t.Helper()
	files, err := filepath.Glob("testdata/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata instances: %v", err)
	}
	var ins []*Instance
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		in, err := ReadJSON(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		ins = append(ins, in)
	}
	ins = append(ins, exampleInstance())
	return ins
}

// fingerprint renders every observable field of a result so comparisons
// across solver paths are byte-level, not approximate.
func fingerprint(res *Result) string {
	return fmt.Sprintf("%.17g|%.17g|%.17g|%v|%d|%.17g|%.17g|%+v",
		res.Makespan, res.LowerBound, res.Guarantee, res.Alloc,
		res.Mu, res.Rho, res.ProvenRatio, res.Schedule.Items)
}

func TestPoolMatchesSequentialSolve(t *testing.T) {
	ins := testBatch(t)
	pool := NewPool(4)
	defer pool.Close()
	out := pool.SolveBatch(context.Background(), ins)
	if len(out) != len(ins) {
		t.Fatalf("got %d outcomes for %d instances", len(out), len(ins))
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("instance %d: %v", i, o.Err)
		}
		seq, err := Solve(ins[i])
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(o.Result) != fingerprint(seq) {
			t.Errorf("instance %d: pool result differs from sequential Solve:\n%s\n%s",
				i, fingerprint(o.Result), fingerprint(seq))
		}
		if err := Verify(ins[i], o.Result); err != nil {
			t.Errorf("instance %d: %v", i, err)
		}
	}
}

func TestPoolDeterministicAcrossWorkerCounts(t *testing.T) {
	ins := testBatch(t)
	var reference []string
	for _, workers := range []int{1, 2, 8} {
		pool := NewPool(workers)
		// Two rounds per pool: the second runs on warm workspaces and must
		// still be byte-identical.
		for round := 0; round < 2; round++ {
			out := pool.SolveBatch(context.Background(), ins)
			var got []string
			for i, o := range out {
				if o.Err != nil {
					t.Fatalf("workers=%d round=%d instance %d: %v", workers, round, i, o.Err)
				}
				got = append(got, fingerprint(o.Result))
			}
			if reference == nil {
				reference = got
				continue
			}
			for i := range got {
				if got[i] != reference[i] {
					t.Errorf("workers=%d round=%d instance %d: result differs from workers=1",
						workers, round, i)
				}
			}
		}
		pool.Close()
	}
}

func TestPoolIsolatesInstanceErrors(t *testing.T) {
	good := exampleInstance()
	bad := &Instance{M: 2, Tasks: []Task{NewTask("x", []float64{1, 2})}} // increasing times
	pool := NewPool(2)
	defer pool.Close()
	out := pool.SolveBatch(context.Background(), []*Instance{good, bad, nil, good})
	if out[0].Err != nil || out[3].Err != nil {
		t.Errorf("healthy instances failed: %v %v", out[0].Err, out[3].Err)
	}
	if out[1].Err == nil {
		t.Error("invalid instance did not error")
	}
	if out[2].Err == nil {
		t.Error("nil instance did not error")
	}
	if out[0].Result == nil || out[0].Result.Makespan <= 0 {
		t.Errorf("degenerate result alongside failures: %+v", out[0].Result)
	}
}

func TestPoolSolveSingle(t *testing.T) {
	pool := NewPool(2, WithMu(2))
	defer pool.Close()
	in := exampleInstance()
	res, err := pool.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mu != 2 {
		t.Errorf("pool-level option ignored: mu=%d", res.Mu)
	}
	// Per-call options override pool options.
	res, err = pool.Solve(context.Background(), in, WithMu(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mu != 1 {
		t.Errorf("per-call option ignored: mu=%d", res.Mu)
	}
}

func TestPoolCancelledContext(t *testing.T) {
	ins := testBatch(t)
	pool := NewPool(2)
	defer pool.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i, o := range pool.SolveBatch(ctx, ins) {
		if !errors.Is(o.Err, context.Canceled) {
			t.Errorf("instance %d: err=%v, want context.Canceled", i, o.Err)
		}
		if o.Result != nil {
			t.Errorf("instance %d: result produced under cancelled context", i)
		}
	}
	if _, err := pool.Solve(ctx, ins[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("Solve: err=%v, want context.Canceled", err)
	}
}

func TestPoolClosed(t *testing.T) {
	pool := NewPool(1)
	pool.Close()
	if _, err := pool.Solve(context.Background(), exampleInstance()); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Solve on closed pool: %v, want ErrPoolClosed", err)
	}
}

// TestPoolConcurrentSolvers stresses concurrent Pool.Solve callers sharing
// one pool; run with -race this checks the worker/workspace handoff.
func TestPoolConcurrentSolvers(t *testing.T) {
	ins := testBatch(t)
	pool := NewPool(4)
	defer pool.Close()
	want := make([]string, len(ins))
	for i, in := range ins {
		res, err := Solve(in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = fingerprint(res)
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 12; k++ {
				i := rng.Intn(len(ins))
				res, err := pool.Solve(context.Background(), ins[i])
				if err != nil {
					t.Errorf("instance %d: %v", i, err)
					return
				}
				if fingerprint(res) != want[i] {
					t.Errorf("instance %d: concurrent result differs from sequential", i)
					return
				}
			}
		}(int64(c))
	}
	wg.Wait()
}

// TestPoolCancelMidBatch cancels while the first solve of a batch is
// running on a single worker: the started solve must terminate promptly —
// completing if it beats the cancellation to the finish, or aborting with
// the context's error at a cancel-flag checkpoint (the race between the
// two is real and both outcomes are correct) — everything still queued
// must fail with the context's error, and the pool must stay usable.
func TestPoolCancelMidBatch(t *testing.T) {
	ins := testBatch(t)
	if len(ins) < 3 {
		t.Fatal("need at least 3 instances")
	}
	pool := NewPool(1)
	defer pool.Close()

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	// Options run on the worker inside the solve, so this gate suspends the
	// first job mid-flight; jobs skipped after cancellation never reach it.
	gate := Option(func(o *solveConfig) {
		once.Do(func() { close(started) })
		<-release
	})
	go func() {
		<-started
		cancel()
		close(release)
	}()

	out := pool.SolveBatch(ctx, ins, gate)
	switch {
	case out[0].Err == nil:
		if out[0].Result == nil || out[0].Result.Makespan <= 0 {
			t.Errorf("started solve completed without a usable result: %+v", out[0].Result)
		}
	case errors.Is(out[0].Err, context.Canceled):
		if out[0].Result != nil {
			t.Errorf("started solve aborted but still produced a result")
		}
	default:
		t.Errorf("started solve: err=%v, want completion or context.Canceled", out[0].Err)
	}
	for i := 1; i < len(out); i++ {
		if !errors.Is(out[i].Err, context.Canceled) {
			t.Errorf("queued instance %d: err=%v, want context.Canceled", i, out[i].Err)
		}
		if out[i].Result != nil {
			t.Errorf("queued instance %d produced a result after cancellation", i)
		}
	}
	// The worker survived the interrupted batch.
	if _, err := pool.Solve(context.Background(), ins[0]); err != nil {
		t.Errorf("pool unusable after cancelled batch: %v", err)
	}
}

// TestPoolRecoversPanickingSolve drives a panic through the public API (an
// option that panics stands in for any instance whose solve panics, a
// cut-separation scan included): the panicking job must come back as an
// error the degradation ladder classifies as FailPanic, siblings must be
// unaffected, and the worker must survive.
func TestPoolRecoversPanickingSolve(t *testing.T) {
	ins := testBatch(t)[:3]
	pool := NewPool(1) // serial execution: jobs run in submission order
	defer pool.Close()

	calls := 0
	boomSecond := Option(func(o *solveConfig) {
		calls++
		if calls == 2 {
			panic("kaboom")
		}
	})
	out := pool.SolveBatch(context.Background(), ins, boomSecond)
	if out[1].Err == nil || !strings.Contains(out[1].Err.Error(), "panic") {
		t.Errorf("panicking instance: err=%v, want panic error", out[1].Err)
	}
	if k := ClassifyFailure(out[1].Err); k != FailPanic {
		t.Errorf("panic classified as %q, want %q", k, FailPanic)
	}
	for _, i := range []int{0, 2} {
		if out[i].Err != nil || out[i].Result == nil {
			t.Errorf("sibling %d: err=%v result=%v, want success", i, out[i].Err, out[i].Result)
		}
	}

	boomAlways := Option(func(o *solveConfig) { panic("kaboom") })
	if res, err := pool.Solve(context.Background(), ins[0], boomAlways); err == nil || res != nil {
		t.Errorf("Solve with panicking job: res=%v err=%v, want error", res, err)
	}
	if _, err := pool.Solve(context.Background(), ins[0]); err != nil {
		t.Errorf("pool unusable after panic: %v", err)
	}
}

// TestPoolZeroWorkerConfig: workers <= 0 means GOMAXPROCS, never a stuck
// zero-worker pool.
func TestPoolZeroWorkerConfig(t *testing.T) {
	for _, w := range []int{0, -7} {
		pool := NewPool(w)
		if pool.Workers() < 1 {
			t.Fatalf("NewPool(%d).Workers() = %d, want >= 1", w, pool.Workers())
		}
		if _, err := pool.Solve(context.Background(), exampleInstance()); err != nil {
			t.Errorf("NewPool(%d): solve failed: %v", w, err)
		}
		pool.Close()
	}
}

// TestPoolSolveAlgoMatchesTopLevel: every algorithm routed through the
// pool's workspace-reusing path must reproduce the top-level functions
// byte for byte.
func TestPoolSolveAlgoMatchesTopLevel(t *testing.T) {
	ins := testBatch(t)
	pool := NewPool(2)
	defer pool.Close()
	direct := map[Algorithm]func(*Instance) (*Result, error){
		AlgoPaper:         func(in *Instance) (*Result, error) { return Solve(in) },
		AlgoLTW:           SolveLTW,
		AlgoGreedyCP:      SolveGreedyCP,
		AlgoSequential:    SolveSequential,
		AlgoFullAllotment: SolveFullAllotment,
	}
	for algo, f := range direct {
		for i, in := range ins {
			want, err := f(in)
			if err != nil {
				t.Fatalf("%v direct instance %d: %v", algo, i, err)
			}
			got, err := pool.SolveAlgo(context.Background(), algo, in)
			if err != nil {
				t.Fatalf("%v pooled instance %d: %v", algo, i, err)
			}
			if fingerprint(got) != fingerprint(want) {
				t.Errorf("%v instance %d: pooled result differs from direct", algo, i)
			}
		}
	}
}

func TestPoolSolveAlgoErrors(t *testing.T) {
	pool := NewPool(1)
	if _, err := pool.SolveAlgo(context.Background(), AlgoLTW, nil); err == nil {
		t.Error("nil instance did not error")
	}
	if _, err := pool.SolveAlgo(context.Background(), Algorithm(99), exampleInstance()); err == nil {
		t.Error("unknown algorithm did not error")
	}
	pool.Close()
	if _, err := pool.SolveAlgo(context.Background(), AlgoPaper, exampleInstance()); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("closed pool: err=%v, want ErrPoolClosed", err)
	}
}

func TestParseAlgorithmRoundTrip(t *testing.T) {
	for _, algo := range []Algorithm{AlgoPaper, AlgoLTW, AlgoGreedyCP, AlgoSequential, AlgoFullAllotment} {
		got, err := ParseAlgorithm(algo.String())
		if err != nil || got != algo {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", algo.String(), got, err)
		}
	}
	for alias, want := range map[string]Algorithm{"ours": AlgoPaper, "sequential": AlgoSequential} {
		if got, err := ParseAlgorithm(alias); err != nil || got != want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v, want %v", alias, got, err, want)
		}
	}
	if _, err := ParseAlgorithm("quantum"); err == nil {
		t.Error("unknown name did not error")
	}
}

// servingInstance is a layered DAG of depth×width tasks with 1..maxIn
// predecessors each and mixed-family tasks on m machines (the serving
// benchmarks' generator), every processing time multiplied by scale.
func servingInstance(seed int64, depth, width, maxIn, m int, scale float64) *Instance {
	rng := rand.New(rand.NewSource(seed))
	g := gen.Layered(depth, width, maxIn, rng)
	in := &Instance{M: m, Tasks: gen.Tasks(gen.FamilyMixed, g.N(), m, rng)}
	for j, task := range in.Tasks {
		times := make([]float64, len(task.Times))
		for i, p := range task.Times {
			times[i] = p * scale
		}
		in.Tasks[j] = NewTask(task.Name, times)
	}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(v) {
			in.Edges = append(in.Edges, [2]int{v, w})
		}
	}
	return in
}

// TestPinDoesNotOutliveAPanickingSolve: a formulation pin belongs to the
// solve that asked for it. A mincut-pinned solve that panics inside the
// sweep must leave nothing behind on its worker: the next, unpinned solve
// there takes the route a fresh solve takes and gives its answer. The
// instance is deep (48 layers of 2 tasks, m=16), so that route is lazy.
func TestPinDoesNotOutliveAPanickingSolve(t *testing.T) {
	in := servingInstance(411, 48, 2, 2, 16, 1) // n=96/m=16, depth 48: routes to lazy
	want, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if want.Formulation != FormulationLazy {
		t.Fatalf("fresh solve routed to %q, want lazy", want.Formulation)
	}
	pool := NewPool(1)
	defer pool.Close()

	flow.FaultSweep = func() bool { panic("injected sweep panic") }
	_, err = pool.Solve(context.Background(), in, WithFormulation(FormulationMincut))
	flow.FaultSweep = nil
	if k := ClassifyFailure(err); k != FailPanic {
		t.Fatalf("pinned solve: err=%v classified %q, want %q", err, k, FailPanic)
	}

	got, err := pool.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Formulation != want.Formulation || fingerprint(got) != fingerprint(want) {
		t.Errorf("after the panic: %s makespan %v, fresh worker: %s makespan %v",
			got.Formulation, got.Makespan, want.Formulation, want.Makespan)
	}
}

// TestPooledMincutMatchesFresh: a min-cut answer depends on its own
// instance only. One worker sweeps instances of very different magnitudes
// back to back, and each answer must equal a fresh worker's bit for bit
// (the sweep's piece tolerance once leaked from one solve into the next).
func TestPooledMincutMatchesFresh(t *testing.T) {
	huge := &Instance{
		M:     2,
		Tasks: []Task{NewTask("a", []float64{1e307, 1e307}), NewTask("b", []float64{1e307, 9e306})},
		Edges: [][2]int{{0, 1}},
	}
	// n=500/m=32, the serving benchmark's large shape.
	large := func(scale float64) *Instance { return servingInstance(1, 25, 20, 3, 32, scale) }
	seq := []*Instance{large(1e9), large(1e-4), huge, large(1), large(1e-4)}

	pool := NewPool(1)
	defer pool.Close()
	pin := WithFormulation(FormulationMincut)
	for i, in := range seq {
		want, err := Solve(in, pin)
		if err != nil {
			t.Fatalf("solve %d fresh: %v", i, err)
		}
		got, err := pool.Solve(context.Background(), in, pin)
		if err != nil {
			t.Fatalf("solve %d pooled: %v", i, err)
		}
		if fingerprint(got) != fingerprint(want) {
			t.Errorf("solve %d: pooled lower bound %v makespan %v, fresh %v and %v",
				i, got.LowerBound, got.Makespan, want.LowerBound, want.Makespan)
		}
	}
}
