package allot_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"malsched/internal/allot"
	"malsched/internal/gen"
	"malsched/internal/malleable"
)

// editInstance returns a structurally identical copy of in with k randomly
// chosen tasks' processing-time vectors rescaled (uniform scaling preserves
// monotonicity and concave speedup, so the edited instance stays valid).
// This is the serving layer's delta-request shape: same DAG, few numeric
// edits.
func editInstance(in *allot.Instance, k int, rng *rand.Rand) *allot.Instance {
	out := &allot.Instance{G: in.G, Tasks: make([]malleable.Task, len(in.Tasks)), M: in.M}
	copy(out.Tasks, in.Tasks)
	for _, j := range rng.Perm(len(out.Tasks))[:k] {
		f := 0.5 + 1.5*rng.Float64()
		times := make([]float64, len(out.Tasks[j].Times))
		for l, p := range out.Tasks[j].Times {
			times[l] = p * f
		}
		out.Tasks[j].Times = times
	}
	return out
}

// checkDeltaAgainstCold solves edited via the delta path (warm from snap)
// and via a cold solve on a fresh workspace and verifies both land on the
// same LP optimum with frontier-feasible solutions.
func checkDeltaAgainstCold(t *testing.T, edited *allot.Instance, snap *allot.LPSnapshot) {
	t.Helper()
	delta, err := allot.SolveLPDeltaWith(edited, allot.NewWorkspace(), snap)
	if err != nil {
		t.Fatalf("delta: %v", err)
	}
	cold, err := allot.SolveLPFormulation(edited, allot.NewWorkspace(), allot.FormulationLazy)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	tol := 1e-6 * (1 + math.Abs(cold.C))
	if math.Abs(delta.C-cold.C) > tol {
		t.Errorf("optimum differs: delta C=%v cold C=%v (delta cuts=%d rounds=%d)",
			delta.C, cold.C, delta.Cuts, delta.Rounds)
	}
	fronts := edited.Frontiers()
	for j := range fronts {
		f := fronts[j]
		if delta.X[j] < f.XMin()-1e-9 || delta.X[j] > f.XMax()+1e-9 {
			t.Errorf("task %d: delta x*=%v outside [%v, %v]", j, delta.X[j], f.XMin(), f.XMax())
		}
		if w := f.WorkAt(delta.X[j]); math.Abs(w-delta.Wbar[j]) > 1e-6*(1+w) {
			t.Errorf("task %d: delta Wbar=%v != w(x*)=%v", j, delta.Wbar[j], w)
		}
	}
	lb := math.Max(delta.L, delta.W/float64(edited.M))
	if lb > delta.C+tol {
		t.Errorf("certificate broken: max{L=%v, W/m=%v} > C=%v", delta.L, delta.W/float64(edited.M), delta.C)
	}
}

// TestSolveLPDeltaMatchesCold is the delta path's acceptance differential:
// across every DAG family, capture a snapshot from a solved base instance,
// edit a few tasks, and verify the warm re-solve reaches the optimum a
// cold solve finds.
func TestSolveLPDeltaMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	for trial := 0; trial < 18; trial++ {
		family := lazyFamilies[trial%len(lazyFamilies)]
		n := 8 + rng.Intn(24)
		m := 2 + rng.Intn(15)
		g := buildDAG(family, n, 0.1+0.3*rng.Float64(), rng)
		base := gen.Instance(g, gen.FamilyMixed, m, rng)
		k := 1 + rng.Intn(8)
		if k > g.N() {
			k = g.N()
		}
		t.Run(fmt.Sprintf("%s_n%d_m%d_k%d", family, g.N(), m, k), func(t *testing.T) {
			ws := allot.NewWorkspace()
			// Snapshots exist on the lazy route only.
			if _, err := allot.SolveLPFormulation(base, ws, allot.FormulationLazy); err != nil {
				t.Fatalf("base: %v", err)
			}
			snap := ws.CaptureLP(base)
			if snap == nil {
				t.Fatal("no snapshot captured after lazy solve")
			}
			checkDeltaAgainstCold(t, editInstance(base, k, rng), snap)
		})
	}
}

// TestSolveLPDeltaChained re-captures after a delta solve and warm-starts
// the next edit from it — the serving layer's steady state, where each
// cached answer seeds the next edit's solve.
func TestSolveLPDeltaChained(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := buildDAG("layered", 24, 0.2, rng)
	cur := gen.Instance(g, gen.FamilyMixed, 8, rng)
	ws := allot.NewWorkspace()
	if _, err := allot.SolveLPFormulation(cur, ws, allot.FormulationLazy); err != nil {
		t.Fatal(err)
	}
	snap := ws.CaptureLP(cur)
	for step := 0; step < 4; step++ {
		edited := editInstance(cur, 3, rng)
		checkDeltaAgainstCold(t, edited, snap)
		dws := allot.NewWorkspace()
		if _, err := allot.SolveLPDeltaWith(edited, dws, snap); err != nil {
			t.Fatal(err)
		}
		next := dws.CaptureLP(edited)
		if next == nil {
			t.Fatalf("step %d: delta solve produced no snapshot", step)
		}
		cur, snap = edited, next
	}
}

// TestSolveLPDeltaMismatchFallsBack: snapshot/instance mismatches must
// degrade to a correct cold solve, never fail or mis-solve — whether fits
// turns the snapshot away or lp's hot start rejects its layout.
func TestSolveLPDeltaMismatchFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := buildDAG("outtree", 12, 0.2, rng)
	in := gen.Instance(g, gen.FamilyMixed, 4, rng)
	cold, err := allot.SolveLP(in)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, snap *allot.LPSnapshot) {
		t.Helper()
		got, err := allot.SolveLPDeltaWith(in, allot.NewWorkspace(), snap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Abs(got.C-cold.C) > 1e-6*(1+math.Abs(cold.C)) {
			t.Errorf("%s: C=%v != cold C=%v", name, got.C, cold.C)
		}
	}
	check("nil snapshot", nil)

	ws := allot.NewWorkspace()
	other := gen.Instance(buildDAG("chain", 5, 0, rng), gen.FamilyMixed, 4, rng)
	if _, err := allot.SolveLPFormulation(other, ws, allot.FormulationLazy); err != nil {
		t.Fatal(err)
	}
	check("wrong task count", ws.CaptureLP(other))

	ws2 := allot.NewWorkspace()
	if _, err := allot.SolveLPFormulation(in, ws2, allot.FormulationLazy); err != nil {
		t.Fatal(err)
	}
	good := ws2.CaptureLP(in)
	bad := *good
	bad.M = in.M + 1
	check("wrong machine size", &bad)

	corrupt := *good
	corrupt.Cuts = append([]allot.CutRef(nil), good.Cuts...)
	corrupt.Cuts[0] = allot.CutRef{Task: int32(len(in.Tasks) + 3), Seg: 0}
	check("out-of-range cut task", &corrupt)

	// A snapshot of another DAG with the same task count and machine size
	// fits (same variable layout, every logged cut names a task with
	// supporting lines), but its base rows differ from the out-tree's, so
	// the replayed rows do not match its basis: lp's hot start rejects the
	// layout and SolveLPFrom restarts from the seeds.
	cws := allot.NewWorkspace()
	chain := gen.Instance(buildDAG("chain", len(in.Tasks), 0, rng), gen.FamilyMixed, in.M, rng)
	if _, err := allot.SolveLPFormulation(chain, cws, allot.FormulationLazy); err != nil {
		t.Fatal(err)
	}
	foreign := cws.CaptureLP(chain)
	baseRows := func(s *allot.LPSnapshot) int { return s.Basis.NRows - len(s.Cuts) }
	if !foreign.Fits(in) || baseRows(foreign) == baseRows(good) {
		t.Fatalf("chain snapshot fits=%v with %d base rows against %d: the case no longer reaches lp's layout check",
			foreign.Fits(in), baseRows(foreign), baseRows(good))
	}
	check("other DAG's base rows", foreign)
	pinned := allot.NewWorkspace()
	got, err := allot.SolveLPFrom(in, pinned, allot.FormulationLazy, foreign)
	if err != nil {
		t.Fatalf("lazy pin: %v", err)
	}
	if math.Abs(got.C-cold.C) > 1e-6*(1+math.Abs(cold.C)) {
		t.Errorf("lazy pin: C=%v != cold C=%v", got.C, cold.C)
	}
	if got.Formulation != allot.FormulationLazy || pinned.CaptureLP(in) == nil {
		t.Errorf("lazy pin: restart ran %q and captured %v, want lazy with a snapshot",
			got.Formulation, pinned.CaptureLP(in) != nil)
	}
}

// TestSolveLPDeltaCollapsedFrontier: an edit that collapses a task's
// frontier to a single point (no supporting lines left to replay) must
// fall back to the cold path and still solve correctly.
func TestSolveLPDeltaCollapsedFrontier(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := buildDAG("forkjoin", 10, 0, rng)
	base := gen.Instance(g, gen.FamilyMixed, 6, rng)
	ws := allot.NewWorkspace()
	if _, err := allot.SolveLPFormulation(base, ws, allot.FormulationLazy); err != nil {
		t.Fatal(err)
	}
	snap := ws.CaptureLP(base)
	if snap == nil {
		t.Fatal("no snapshot")
	}
	edited := &allot.Instance{G: base.G, Tasks: append([]malleable.Task(nil), base.Tasks...), M: base.M}
	flat := make([]float64, len(edited.Tasks[0].Times))
	for l := range flat {
		flat[l] = 5 // constant times: no speedup, single-point frontier
	}
	edited.Tasks[0] = malleable.NewTask("flat", flat)
	checkDeltaAgainstCold(t, edited, snap)
}

// TestCaptureLPNilOffLazyRoute: the min-cut sweep keeps no basis, so a
// solve routed there must not export a snapshot — not even the stale one
// an earlier lazy solve left on the same workspace.
func TestCaptureLPNilOffLazyRoute(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := buildDAG("independent", 16, 0, rng)
	in := gen.Instance(g, gen.FamilyMixed, 8, rng)
	ws := allot.NewWorkspace()
	if _, err := allot.SolveLPFormulation(in, ws, allot.FormulationLazy); err != nil {
		t.Fatal(err)
	}
	if ws.CaptureLP(in) == nil {
		t.Fatal("lazy solve exported no snapshot")
	}
	if _, err := allot.SolveLPFormulation(in, ws, allot.FormulationMincut); err != nil {
		t.Fatal(err)
	}
	if snap := ws.CaptureLP(in); snap != nil {
		t.Error("mincut-route solve exported a snapshot")
	}
}
