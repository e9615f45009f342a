package allot_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"malsched/internal/allot"
	"malsched/internal/bruteforce"
	"malsched/internal/flow"
	"malsched/internal/gen"
	"malsched/internal/malleable"
)

// checkMincutAgainstSparse solves the instance with the parametric
// min-cut sweep and the lazy sparse simplex and verifies the mincut
// result exactly the way the sparse path was verified against the dense
// reference (see checkAgainstReference): (a) the optima agree to 1e-6
// relative — the LP optimum is unique even when the optimal point is
// not, so only the objective is pinned — and (b) the sweep's solution
// is feasible for LP (9): times inside their frontier domains, work
// evaluated on the frontier, and the certified relation
// max{L*, W*/m} <= C*.
func checkMincutAgainstSparse(t *testing.T, in *allot.Instance, ws *allot.Workspace) {
	t.Helper()
	mc, err := allot.SolveLPFormulation(in, ws, allot.FormulationMincut)
	if err != nil {
		t.Fatalf("mincut: %v", err)
	}
	if mc.Formulation != allot.FormulationMincut {
		t.Fatalf("formulation = %q, want mincut", mc.Formulation)
	}
	sparse, err := allot.SolveLPFormulation(in, ws, allot.FormulationLazy)
	if err != nil {
		t.Fatalf("sparse: %v", err)
	}
	tol := 1e-6 * (1 + math.Abs(sparse.C))
	if math.Abs(mc.C-sparse.C) > tol {
		t.Errorf("optimum differs: mincut C=%v sparse C=%v (breakpoints=%d augments=%d)",
			mc.C, sparse.C, mc.Cuts, mc.Rounds)
	}
	fronts := in.Frontiers()
	for j := range fronts {
		f := fronts[j]
		if mc.X[j] < f.XMin()-1e-9 || mc.X[j] > f.XMax()+1e-9 {
			t.Errorf("task %d: x*=%v outside [%v, %v]", j, mc.X[j], f.XMin(), f.XMax())
		}
		if w := f.WorkAt(mc.X[j]); math.Abs(w-mc.Wbar[j]) > 1e-6*(1+w) {
			t.Errorf("task %d: Wbar=%v != w(x*)=%v", j, mc.Wbar[j], w)
		}
	}
	lb := math.Max(mc.L, mc.W/float64(in.M))
	if lb > mc.C+tol {
		t.Errorf("certificate broken: max{L=%v, W/m=%v} > C=%v", mc.L, mc.W/float64(in.M), mc.C)
	}
}

// TestSolveLPMincutMatchesSparse is the acceptance differential test for
// the parametric formulation: mincut against the lazy sparse simplex
// across six random DAG families, machine sizes and task families,
// through one shared workspace (reuse must not leak state between
// instances or formulations).
func TestSolveLPMincutMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	ws := allot.NewWorkspace()
	for trial := 0; trial < 36; trial++ {
		family := lazyFamilies[trial%len(lazyFamilies)]
		n := 4 + rng.Intn(24)
		m := 2 + rng.Intn(15)
		g := buildDAG(family, n, 0.1+0.3*rng.Float64(), rng)
		in := gen.Instance(g, gen.FamilyMixed, m, rng)
		t.Run(fmt.Sprintf("%s_n%d_m%d", family, g.N(), m), func(t *testing.T) {
			checkMincutAgainstSparse(t, in, ws)
		})
	}
}

// TestSolveLPMincutLargerM drives machine sizes where the crashing
// curves get many near-collinear pieces — the shapes that exercise the
// slope-representative envelope collapse and the piece-boundary
// snapping of the sweep.
func TestSolveLPMincutLargerM(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	ws := allot.NewWorkspace()
	for _, cfg := range []struct {
		family string
		n, m   int
	}{
		{"layered", 40, 64},
		{"erdos", 32, 48},
		{"forkjoin", 26, 64},
		{"chain", 30, 64},
		{"independent", 48, 64},
		{"outtree", 40, 48},
	} {
		g := buildDAG(cfg.family, cfg.n, 0.15, rng)
		in := gen.Instance(g, gen.FamilyMixed, cfg.m, rng)
		t.Run(fmt.Sprintf("%s_n%d_m%d", cfg.family, g.N(), cfg.m), func(t *testing.T) {
			checkMincutAgainstSparse(t, in, ws)
		})
	}
}

// TestSolveLPMincutBelowBruteforceOptimal closes the loop on tiny
// instances: the LP optimum is a lower bound on the true integral
// optimum (Eq. 11), so the sweep's C* must stay below exhaustive
// search.
func TestSolveLPMincutBelowBruteforceOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	ws := allot.NewWorkspace()
	for trial := 0; trial < 12; trial++ {
		family := lazyFamilies[trial%len(lazyFamilies)]
		n := 3 + rng.Intn(3)
		m := 2 + rng.Intn(2)
		g := buildDAG(family, n, 0.3, rng)
		in := gen.Instance(g, gen.FamilyMixed, m, rng)
		opt := bruteforce.Optimal(in)
		mc, err := allot.SolveLPFormulation(in, ws, allot.FormulationMincut)
		if err != nil {
			t.Fatalf("trial %d: mincut: %v", trial, err)
		}
		if eps := 1e-6 * (1 + opt); mc.C > opt+eps {
			t.Errorf("trial %d (%s): mincut C*=%v exceeds brute-force OPT=%v", trial, family, mc.C, opt)
		}
	}
}

// TestMincutAutoRouting pins the router: an instance of segment mass
// MincutFormulationMin or more takes the sweep, a smaller one the lazy
// loop, and an unknown pinned formulation errors.
func TestMincutAutoRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	mass := func(in *allot.Instance) int {
		total := 0
		for _, f := range in.Frontiers() {
			total += f.Segments()
		}
		return total
	}
	ws := allot.NewWorkspace()
	for _, c := range []struct {
		in   *allot.Instance
		want allot.Formulation
	}{
		{gen.Instance(gen.Layered(20, 10, 3, rng), gen.FamilyMixed, 64, rng), allot.FormulationMincut},
		{gen.Instance(gen.Layered(10, 6, 3, rng), gen.FamilyMixed, 32, rng), allot.FormulationLazy},
	} {
		big := mass(c.in) >= allot.MincutFormulationMin
		if big != (c.want == allot.FormulationMincut) {
			t.Fatalf("segment mass %d is on the wrong side of %d", mass(c.in), allot.MincutFormulationMin)
		}
		frac, err := allot.SolveLPWith(c.in, ws)
		if err != nil {
			t.Fatal(err)
		}
		if frac.Formulation != c.want {
			t.Errorf("segment mass %d routed to %q, want %q", mass(c.in), frac.Formulation, c.want)
		}
		if frac.Cuts == 0 {
			t.Errorf("%s solve reports no effort on a work-bound instance", frac.Formulation)
		}
	}

	for _, f := range []allot.Formulation{"segment", "dense"} {
		if _, err := allot.SolveLPFormulation(gen.Instance(gen.Chain(3), gen.FamilyMixed, 4, rng), ws, f); err == nil {
			t.Errorf("retired formulation %q did not error", f)
		}
	}
}

// TestMincutFaultInjection arms the flow core's fault hook and checks
// the failure surfaces as flow.ErrStalled through SolveLPFormulation — the
// sentinel the serving layer's degradation ladder classifies as
// recoverable.
func TestMincutFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(909))
	in := gen.Instance(gen.Layered(8, 4, 3, rng), gen.FamilyMixed, 8, rng)
	flow.FaultSweep = func() bool { return true }
	defer func() { flow.FaultSweep = nil }()
	_, err := allot.SolveLPFormulation(in, allot.NewWorkspace(), allot.FormulationMincut)
	if err == nil {
		t.Fatal("armed fault hook did not fail the solve")
	}
	if !errors.Is(err, flow.ErrStalled) {
		t.Fatalf("fault error %v is not errors.Is-able to flow.ErrStalled", err)
	}
}

// TestHugeTimesBothEngines: the chain [s, s] → [s, 0.9s] on m=2 has
// OPT = 1.9·s. From s ≈ 1e154 the products in a supporting line's
// intercept overflowed (the lazy route reported a phantom "unbounded"),
// and at s = 1e307 the sweep's stopping crossing did (C* = 2e307, above
// OPT). At every magnitude both engines must agree on C* and stay at or
// below OPT.
func TestHugeTimesBothEngines(t *testing.T) {
	for _, s := range []float64{1e154, 1e160, 1e200, 1e300, 1e307} {
		in := &allot.Instance{G: gen.Chain(2), M: 2, Tasks: []malleable.Task{
			malleable.NewTask("a", []float64{s, s}), malleable.NewTask("b", []float64{s, 0.9 * s}),
		}}
		opt := bruteforce.Optimal(in)
		var cs []float64
		for _, f := range []allot.Formulation{allot.FormulationLazy, allot.FormulationMincut} {
			frac, err := allot.SolveLPFormulation(in, allot.NewWorkspace(), f)
			if err != nil {
				t.Errorf("s=%g %s: %v", s, f, err)
				continue
			}
			if frac.C > opt*(1+1e-9) {
				t.Errorf("s=%g %s: C*=%g exceeds OPT=%g", s, f, frac.C, opt)
			}
			cs = append(cs, frac.C)
		}
		if len(cs) == 2 && math.Abs(cs[0]-cs[1]) > 1e-9*cs[1] {
			t.Errorf("s=%g: lazy C*=%g, mincut C*=%g", s, cs[0], cs[1])
		}
	}
}
