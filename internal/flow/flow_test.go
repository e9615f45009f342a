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
	"malsched/internal/lp"
)

// network is a random project-crashing network: each task is a
// crashable arc, precedence arcs are rigid and zero-length, and the
// super source 0 and super sink 1 hang off the DAG's sources and sinks.
// merged picks internal/allot's layout (see build).
type network struct {
	n      int
	base   []float64   // uncrashed task durations
	rates  [][]float64 // per task, non-decreasing
	widths [][]float64
	succs  [][]int
	m      float64
	phi0   float64 // work floor: every task uncrashed
	merged bool
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

// build loads the network into ws and returns the task arcs' ids. In
// the plain layout task j is the arc 2+2j -> 3+2j, with a rigid arc into
// its start from the source or from each predecessor's end. The merged
// layout is internal/allot's: task j ends at node 2+j and starts at the
// source without predecessors, at its one predecessor's end with one,
// and only with two or more at a node of its own, fed by rigid arcs.
func (nw *network) build(ws *flow.Workspace) []int {
	preds := make([]int, nw.n)
	for j := range nw.succs {
		for _, s := range nw.succs[j] {
			preds[s]++
		}
	}
	start, end := make([]int, nw.n), make([]int, nw.n)
	nodes := 2 + 2*nw.n
	if nw.merged {
		nodes = 2 + nw.n
	}
	for j := 0; j < nw.n; j++ { // task indices are a topological order
		switch {
		case !nw.merged:
			start[j], end[j] = 2+2*j, 3+2*j
			continue
		case preds[j] == 0:
			start[j] = 0
		case preds[j] > 1:
			start[j] = nodes
			nodes++
		}
		end[j] = 2 + j
		for _, s := range nw.succs[j] {
			if preds[s] == 1 {
				start[s] = end[j]
			}
		}
	}
	ws.Reset(nodes)
	arcs := make([]int, nw.n)
	for j := 0; j < nw.n; j++ {
		arcs[j] = ws.Arc(start[j], end[j], nw.base[j])
		for k := range nw.rates[j] {
			ws.Piece(nw.rates[j][k], nw.widths[j][k])
		}
		if !nw.merged && preds[j] == 0 {
			ws.Arc(0, start[j], 0)
		}
		for _, s := range nw.succs[j] {
			if start[s] != end[j] {
				ws.Arc(end[j], start[s], 0)
			}
		}
		if len(nw.succs[j]) == 0 {
			ws.Arc(end[j], 1, 0)
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

func sweep(t testing.TB, ws *flow.Workspace, nw *network) outcome {
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
func checkOutcome(t testing.TB, ws *flow.Workspace, nw *network, out outcome) {
	t.Helper()
	tol := 1e-6 * (1 + out.c)
	if want := math.Max(out.lambda, out.phi/nw.m); math.Abs(out.c-want) > tol {
		t.Errorf("C=%v, want max(lambda=%v, phi/m=%v)", out.c, out.lambda, out.phi/nw.m)
	}
	if cost := ws.CrashCost(); math.Abs(out.phi-nw.phi0-cost) > 1e-6*(1+out.phi) {
		t.Errorf("phi-phi0=%v, crash amounts cost %v", out.phi-nw.phi0, cost)
	}
	for j, y := range out.y {
		if y < -1e-9 || y > nw.base[j] {
			t.Fatalf("task %d: crash amount %v outside [0, %v]", j, y, nw.base[j])
		}
	}
	if path := nw.criticalPath(out.y); math.Abs(path-out.lambda) > tol {
		t.Errorf("critical path %v under the crash amounts, lambda %v", path, out.lambda)
	}
}

// criticalPath returns the longest path through the task DAG when task
// j takes base[j]-y[j] (y nil: uncrashed).
func (nw *network) criticalPath(y []float64) float64 {
	finish := make([]float64, nw.n)
	path := 0.0
	for j := 0; j < nw.n; j++ { // task indices are a topological order
		d := nw.base[j]
		if y != nil {
			d -= y[j]
		}
		finish[j] += d
		path = math.Max(path, finish[j])
		for _, s := range nw.succs[j] {
			finish[s] = math.Max(finish[s], finish[j])
		}
	}
	return path
}

// checkOptimal solves the network's project-crashing LP with the simplex
// of internal/lp, which shares no code with the sweep, and requires the
// sweep's C within 1e-9 relative of its optimum. The LP minimises C
// subject to C >= every sink task's finish time, m*C >= phi0 plus the
// crashing cost, each task finishing at least its crashed duration (base
// less its pieces) after each predecessor's finish, or after 0 without
// one, and each piece in [0, width].
func checkOptimal(t testing.TB, nw *network, out outcome) {
	t.Helper()
	p := lp.NewProblem()
	c := p.AddVar("C")
	p.SetObj(c, 1)
	cost := []lp.Term{{Var: c, Coef: nw.m}}
	finish := make([]int, nw.n)
	crash := make([][]lp.Term, nw.n) // +1 per piece of task j
	for j := 0; j < nw.n; j++ {
		finish[j] = p.AddVar("finish")
		for k, w := range nw.widths[j] {
			y := p.AddVar("piece")
			p.SetBounds(y, 0, w)
			crash[j] = append(crash[j], lp.Term{Var: y, Coef: 1})
			cost = append(cost, lp.Term{Var: y, Coef: -nw.rates[j][k]})
		}
	}
	p.AddConstraint(lp.GE, nw.phi0, cost...)
	hasPred := make([]bool, nw.n)
	for j := 0; j < nw.n; j++ {
		for _, s := range nw.succs[j] {
			hasPred[s] = true
			row := append([]lp.Term{{Var: finish[s], Coef: 1}, {Var: finish[j], Coef: -1}}, crash[s]...)
			p.AddConstraint(lp.GE, nw.base[s], row...)
		}
		if len(nw.succs[j]) == 0 {
			p.AddConstraint(lp.GE, 0, lp.Term{Var: c, Coef: 1}, lp.Term{Var: finish[j], Coef: -1})
		}
	}
	for j := 0; j < nw.n; j++ {
		if !hasPred[j] {
			p.AddConstraint(lp.GE, nw.base[j], append([]lp.Term{{Var: finish[j], Coef: 1}}, crash[j]...)...)
		}
	}
	sol, err := p.Solve()
	if err != nil {
		t.Fatalf("project-crashing LP: %v", err)
	}
	if math.Abs(out.c-sol.Obj) > 1e-9*math.Abs(sol.Obj) {
		t.Errorf("sweep C=%v, project-crashing LP %v (%.3g relative)", out.c, sol.Obj, math.Abs(out.c-sol.Obj)/math.Abs(sol.Obj))
	}
}

// sweepAudit counts, over the sweeps run while it is installed, the
// R-tree changes (joins and repairs) and the sink-search paths found
// wholly along the remembered arcs (along) or leaving them mid-way
// (broke), and keeps the first violation the audits of the tree and of
// the paths find.
type sweepAudit struct {
	joins, repairs int
	along, broke   int
	broken         error
}

// watchSweep audits the R tree after every join and every repair, and
// every path a sink search finds, of any sweep until restore is called.
func watchSweep() (au *sweepAudit, restore func()) {
	au = &sweepAudit{}
	trees := flow.WatchRepairs(func(ws *flow.Workspace, joined bool) {
		if joined {
			au.joins++
		} else {
			au.repairs++
		}
		if au.broken == nil {
			au.broken = flow.CheckTree(ws)
		}
	})
	paths := flow.WatchPaths(func(along, broke bool, err error) {
		if along {
			au.along++
		}
		if broke {
			au.broke++
		}
		if au.broken == nil {
			au.broken = err
		}
	})
	return au, func() { paths(); trees() }
}

// exercised fails the test unless the audit saw both kinds of tree
// change and both kinds of remembered path.
func (au *sweepAudit) exercised(t testing.TB) {
	t.Helper()
	if au.joins == 0 || au.repairs == 0 || au.along == 0 || au.broke == 0 {
		t.Fatalf("audited %d joins, %d repairs, %d paths along the memory and %d leaving it mid-way; the test must exercise all four",
			au.joins, au.repairs, au.along, au.broke)
	}
	t.Logf("audited %d joins, %d repairs, %d paths along the memory and %d leaving it mid-way", au.joins, au.repairs, au.along, au.broke)
}

// TestSweepTreeInvariants audits the source-side tree after every join
// and every repair, and every path a sink search finds, on random deep
// networks, and each sweep's answer against its network and against the
// network's project-crashing LP. Most of these networks end where lambda
// can fall no further, where C is the fully crashed critical path
// whatever the rates; each is swept again with its stopping line at 1.5
// phi0 over the uncrashed path, which ends most of them on the line, so
// the LP checks the crashing costs too.
// TestSweepHangRegression runs the same audits on the instance whose
// repair once corrupted the tree.
func TestSweepTreeInvariants(t *testing.T) {
	au, restore := watchSweep()
	defer restore()
	ws := flow.NewWorkspace()
	for trial := 0; trial < 60; trial++ {
		nw := randomNetwork(int64(trial), 20+trial*2)
		line := *nw
		line.m = 1.5 * nw.phi0 / nw.criticalPath(nil)
		for _, nw := range []*network{nw, &line} {
			out := sweep(t, ws, nw)
			if au.broken != nil {
				t.Fatalf("trial %d, m=%v: %v", trial, nw.m, au.broken)
			}
			checkOutcome(t, ws, nw, out)
			checkOptimal(t, nw, out)
		}
	}
	au.exercised(t)
}

// FuzzSweep sweeps the random network of an arbitrary (seed, size) —
// odd seeds draw integral rates, which tie capacities and saturate
// several tree arcs at once, and odd sizes build internal/allot's merged
// layout, where tasks start at the source or at a predecessor's end —
// auditing the tree after every join and repair and every path a sink
// search finds, and checks the answer against its network and against
// the network's project-crashing LP. Its seeds between them must
// exercise every audit; a fuzzed input, which may be too small for any,
// has only to pass them. Most seeds end where lambda can fall no
// further; {104, 5} starts work-bound and {5, 4} ends on the stopping
// line, so the LP checks both other exits too.
func FuzzSweep(f *testing.F) {
	au, restore := watchSweep()
	ws := flow.NewWorkspace()
	for _, c := range []struct {
		seed int64
		size int
	}{{0, 20}, {1, 40}, {3, 1}, {9, 120}, {308, 200}, {2, 61}, {5, 151}, {104, 5}, {5, 4}} {
		f.Add(c.seed, c.size)
		nw := fuzzNetwork(c.seed, c.size)
		out := sweep(f, ws, nw)
		checkOutcome(f, ws, nw, out)
		checkOptimal(f, nw, out)
	}
	restore()
	if au.broken != nil {
		f.Fatal(au.broken)
	}
	au.exercised(f)
	f.Fuzz(func(t *testing.T, seed int64, size int) {
		nw := fuzzNetwork(seed, size)
		au, restore := watchSweep()
		defer restore()
		ws := flow.NewWorkspace()
		out := sweep(t, ws, nw)
		if au.broken != nil {
			t.Fatal(au.broken)
		}
		checkOutcome(t, ws, nw, out)
		checkOptimal(t, nw, out)
	})
}

// fuzzNetwork is FuzzSweep's network for (seed, size).
func fuzzNetwork(seed int64, size int) *network {
	nw := randomNetwork(seed, 1+int(uint(size)%200))
	nw.merged = size&1 != 0
	return nw
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

// TestSweepCorruptChildListStalls: a repair collects a detached subtree
// through the R tree's child lists, so a cycle in one of them must fail
// the sweep with ErrStalled, as a cycle of parent links does, instead of
// collecting orphans without end. A repair hook closes such a cycle at
// the first repair, and the workspace must solve the next network
// exactly.
func TestSweepCorruptChildListStalls(t *testing.T) {
	ws := flow.NewWorkspace()
	for seed := int64(0); seed < 5; seed++ {
		for _, n := range []int{40, 120} {
			nw := randomNetwork(seed, n)
			corrupted := false
			restore := flow.WatchRepairs(func(ws *flow.Workspace, joined bool) {
				if !joined && !corrupted {
					corrupted = flow.CorruptSiblings(ws)
				}
			})
			nw.build(ws)
			_, err := ws.Sweep(0, 1, nw.m, nw.phi0)
			restore()
			if !corrupted {
				t.Fatalf("seed %d n=%d: no repair found a child list to corrupt", seed, n)
			}
			if !errors.Is(err, flow.ErrStalled) {
				t.Fatalf("seed %d n=%d: corrupt child list: err=%v, want ErrStalled", seed, n, err)
			}
			checkOutcome(t, ws, nw, sweep(t, ws, nw))
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
// walk to the source spun forever. The tree is audited after every join
// and every repair on the way.
func TestSweepHangRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(int64(mix(308, 3, 2057) >> 1)))
	g := gen.Layered(25, 20, 3, rng)
	in := &malsched.Instance{M: 32, Tasks: gen.Tasks(gen.FamilyMixed, 500, 32, rng)}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(v) {
			in.Edges = append(in.Edges, [2]int{v, w})
		}
	}
	au, restore := watchSweep()
	defer restore()

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
		if au.broken != nil {
			t.Fatal(au.broken)
		}
		if a.err != nil {
			t.Fatalf("solve: %v", a.err)
		}
		au.exercised(t)
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
