package flow_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"malsched"
	"malsched/internal/cancelflag"
	"malsched/internal/flow"
	"malsched/internal/gen"
)

// network is a random project-crashing network as internal/allot builds
// them: task j is the crashable arc 2+2j -> 3+2j, precedence arcs are
// rigid and zero-length, and the super source 0 and super sink 1 hang
// off the DAG's sources and sinks.
type network struct {
	n      int
	base   []float64   // uncrashed task durations
	rates  [][]float64 // per task, non-decreasing
	widths [][]float64
	succs  [][]int
	m      float64
	phi0   float64 // work floor: every task uncrashed
}

// randomNetwork draws a layered-ish task DAG of n tasks (arcs only to
// the next few indices, so the network is deep) with convex crashing
// curves. Odd seeds draw small integer rates: equal capacities make one
// augmentation saturate several tree arcs at once, which is what
// stresses the tree repair. Some curves repeat a rate, exercising the
// equal-slope pieces.
func randomNetwork(seed int64, n int) *network {
	rng := rand.New(rand.NewSource(seed))
	nw := &network{n: n, m: float64(2 + rng.Intn(63))}
	nw.base = make([]float64, n)
	nw.rates = make([][]float64, n)
	nw.widths = make([][]float64, n)
	nw.succs = make([][]int, n)
	integral := seed%2 != 0
	for j := 0; j < n; j++ {
		d := 5 + 45*rng.Float64()
		nw.base[j] = d
		nw.phi0 += d
		left := 0.9 * d
		rate := 0.1 + 2*rng.Float64()
		if integral {
			rate = float64(1 + rng.Intn(3))
		}
		for k := rng.Intn(7); k > 0; k-- {
			w := left * rng.Float64()
			left -= w
			nw.rates[j] = append(nw.rates[j], rate)
			nw.widths[j] = append(nw.widths[j], w)
			switch {
			case rng.Intn(4) == 0:
			case integral:
				rate += float64(1 + rng.Intn(2))
			default:
				rate *= 1 + rng.Float64()
			}
		}
		for s := j + 1; s < n && s <= j+6; s++ {
			if rng.Intn(3) == 0 {
				nw.succs[j] = append(nw.succs[j], s)
			}
		}
	}
	return nw
}

// build loads the network into ws in allot's arc order and returns the
// task arcs' ids.
func (nw *network) build(ws *flow.Workspace) []int {
	hasPred := make([]bool, nw.n)
	for j := range nw.succs {
		for _, s := range nw.succs[j] {
			hasPred[s] = true
		}
	}
	ws.Reset(2*nw.n + 2)
	arcs := make([]int, nw.n)
	for j := 0; j < nw.n; j++ {
		arcs[j] = ws.Arc(2+2*j, 3+2*j, nw.base[j])
		for k := range nw.rates[j] {
			ws.Piece(nw.rates[j][k], nw.widths[j][k])
		}
		if !hasPred[j] {
			ws.Arc(0, 2+2*j, 0)
		}
		for _, s := range nw.succs[j] {
			ws.Arc(3+2*j, 2+2*s, 0)
		}
		if len(nw.succs[j]) == 0 {
			ws.Arc(3+2*j, 1, 0)
		}
	}
	return arcs
}

// outcome is everything a sweep reports.
type outcome struct {
	c, lambda, phi        float64
	breakpoints, augments int
	y                     []float64
}

func sweep(t *testing.T, ws *flow.Workspace, nw *network) outcome {
	t.Helper()
	arcs := nw.build(ws)
	c, err := ws.Sweep(0, 1, nw.m, nw.phi0)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	out := outcome{c: c, lambda: ws.Lambda, phi: ws.Phi, breakpoints: ws.Breakpoints, augments: ws.Augments}
	for _, a := range arcs {
		out.y = append(out.y, ws.Y(a))
	}
	return out
}

// checkOutcome audits a sweep against its network: C is the larger of
// the critical path and the cost line, the cost matches the crash
// amounts, and the critical path under the crashed durations is lambda.
func checkOutcome(t *testing.T, ws *flow.Workspace, nw *network, out outcome) {
	t.Helper()
	tol := 1e-6 * (1 + out.c)
	if want := math.Max(out.lambda, out.phi/nw.m); math.Abs(out.c-want) > tol {
		t.Errorf("C=%v, want max(lambda=%v, phi/m=%v)", out.c, out.lambda, out.phi/nw.m)
	}
	if cost := ws.CrashCost(); math.Abs(out.phi-nw.phi0-cost) > 1e-6*(1+out.phi) {
		t.Errorf("phi-phi0=%v, crash amounts cost %v", out.phi-nw.phi0, cost)
	}
	finish := make([]float64, nw.n)
	path := 0.0
	for j := 0; j < nw.n; j++ { // task indices are a topological order
		if out.y[j] < -1e-9 || out.y[j] > nw.base[j] {
			t.Fatalf("task %d: crash amount %v outside [0, %v]", j, out.y[j], nw.base[j])
		}
		finish[j] += nw.base[j] - out.y[j]
		path = math.Max(path, finish[j])
		for _, s := range nw.succs[j] {
			finish[s] = math.Max(finish[s], finish[j])
		}
	}
	if math.Abs(path-out.lambda) > tol {
		t.Errorf("critical path %v under the crash amounts, lambda %v", path, out.lambda)
	}
}

// TestSweepTreeInvariants audits the source-side tree after every repair
// on random deep networks, and each sweep's answer against its network.
// TestSweepHangRegression audits the same tree on the instance whose
// repair once corrupted it.
func TestSweepTreeInvariants(t *testing.T) {
	repairs := 0
	var broken error
	defer flow.WatchRepairs(func(ws *flow.Workspace) {
		repairs++
		if broken == nil {
			broken = flow.CheckTree(ws)
		}
	})()
	ws := flow.NewWorkspace()
	for trial := 0; trial < 60; trial++ {
		nw := randomNetwork(int64(trial), 20+trial*2)
		out := sweep(t, ws, nw)
		if broken != nil {
			t.Fatalf("trial %d: after a repair: %v", trial, broken)
		}
		checkOutcome(t, ws, nw, out)
	}
	if repairs == 0 {
		t.Fatal("no sweep repaired its tree; the test exercises nothing")
	}
	t.Logf("%d repairs audited", repairs)
}

// TestSweepReuseAcrossReset solves a small, a larger and a smaller
// network on one workspace; each must match a fresh workspace exactly.
func TestSweepReuseAcrossReset(t *testing.T) {
	shared := flow.NewWorkspace()
	for _, size := range []struct {
		seed int64
		n    int
	}{{101, 30}, {102, 160}, {103, 12}, {104, 90}} {
		nw := randomNetwork(size.seed, size.n)
		got := sweep(t, shared, nw)
		want := sweep(t, flow.NewWorkspace(), nw)
		if got.c != want.c || got.lambda != want.lambda || got.phi != want.phi ||
			got.breakpoints != want.breakpoints || got.augments != want.augments {
			t.Errorf("n=%d: reused workspace %+v, fresh %+v", size.n, got, want)
			continue
		}
		for j := range got.y {
			if got.y[j] != want.y[j] {
				t.Errorf("n=%d task %d: reused y=%v, fresh y=%v", size.n, j, got.y[j], want.y[j])
				break
			}
		}
	}
}

// TestSweepLongChainWithinBudget: on a chain nearly every crashing piece
// is a breakpoint with its own augmenting path, so the augmentation count
// grows with the pieces, not the arcs. A budget sized by arcs alone
// stalled a 400-task chain at m=64.
func TestSweepLongChainWithinBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(400))
	const n, pieces = 400, 40
	nw := &network{n: n, m: 64}
	for j := 0; j < n; j++ {
		d := 10 + 40*rng.Float64()
		nw.base = append(nw.base, d)
		nw.phi0 += d
		var rates, widths []float64
		rate := 0.5 + rng.Float64()
		for k := 0; k < pieces; k++ {
			rates = append(rates, rate)
			widths = append(widths, 0.9*d/pieces)
			rate *= 1 + 0.2*rng.Float64()
		}
		nw.rates = append(nw.rates, rates)
		nw.widths = append(nw.widths, widths)
		var succ []int
		if j+1 < n {
			succ = []int{j + 1}
		}
		nw.succs = append(nw.succs, succ)
	}
	ws := flow.NewWorkspace()
	checkOutcome(t, ws, nw, sweep(t, ws, nw))
}

// crashing returns a network whose sweep processes at least one event
// (it is neither work-bound at the start nor done at the first flow).
func crashing(t *testing.T) *network {
	t.Helper()
	for seed := int64(200); seed < 260; seed++ {
		nw := randomNetwork(seed, 40)
		if sweep(t, flow.NewWorkspace(), nw).breakpoints > 0 {
			return nw
		}
	}
	t.Fatal("no random network needs a breakpoint")
	return nil
}

func TestSweepFaultStalls(t *testing.T) {
	nw := crashing(t)
	for _, after := range []int{0, 1, 3} {
		calls := 0
		flow.FaultSweep = func() bool { calls++; return calls > after }
		ws := flow.NewWorkspace()
		nw.build(ws)
		_, err := ws.Sweep(0, 1, nw.m, nw.phi0)
		flow.FaultSweep = nil
		if !errors.Is(err, flow.ErrStalled) {
			t.Errorf("fault after %d calls: err=%v, want ErrStalled", after, err)
		}
	}
}

func TestSweepCanceled(t *testing.T) {
	nw := crashing(t)
	ws := flow.NewWorkspace()
	ws.Cancel = &cancelflag.Flag{}
	ws.Cancel.Set()
	nw.build(ws)
	if _, err := ws.Sweep(0, 1, nw.m, nw.phi0); !errors.Is(err, cancelflag.ErrCanceled) {
		t.Fatalf("canceled sweep: err=%v, want cancelflag.ErrCanceled", err)
	}
	ws.Cancel.Clear()
	checkOutcome(t, ws, nw, sweep(t, ws, nw))
}

// mix is the benchmark's splitmix64 hash of (seed, stream, index), from
// which every benchmark input is drawn.
func mix(seed int64, stream, i int) uint64 {
	x := uint64(seed)
	for _, v := range [2]uint64{uint64(stream), uint64(i)} {
		x += 0x9E3779B97F4A7C15 + v
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	return x
}

// TestSweepHangRegression solves the fresh n=500/m=32 instance of the
// serving benchmark (seed 308, request 2057) that once never returned:
// a corrupted source-side tree closed a parent cycle and the sweep's
// walk to the source spun forever. The tree is audited after every
// repair on the way.
func TestSweepHangRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(int64(mix(308, 3, 2057) >> 1)))
	g := gen.Layered(25, 20, 3, rng)
	in := &malsched.Instance{M: 32, Tasks: gen.Tasks(gen.FamilyMixed, 500, 32, rng)}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(v) {
			in.Edges = append(in.Edges, [2]int{v, w})
		}
	}
	var broken error
	defer flow.WatchRepairs(func(ws *flow.Workspace) {
		if broken == nil {
			broken = flow.CheckTree(ws)
		}
	})()

	type answer struct {
		res *malsched.Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := malsched.Solve(in)
		done <- answer{res, err}
	}()
	select {
	case a := <-done:
		if broken != nil {
			t.Fatalf("after a repair: %v", broken)
		}
		if a.err != nil {
			t.Fatalf("solve: %v", a.err)
		}
		if a.res.Formulation != malsched.FormulationMincut {
			t.Errorf("formulation %q, want mincut", a.res.Formulation)
		}
		if err := malsched.Verify(in, a.res); err != nil {
			t.Errorf("schedule: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("malsched.Solve did not return within 60s")
	}
}
