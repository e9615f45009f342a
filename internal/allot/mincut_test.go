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
	"malsched/internal/prep"
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

// TestMincutAutoRouting pins the auto route to allot.UseMincut on real
// instances: a wide layered DAG takes the sweep, deep ones (a chain, a
// width-2 layered DAG) the lazy loop, with depth read off the instance
// the route sees. An unknown pinned formulation errors.
func TestMincutAutoRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(808))
	ws := allot.NewWorkspace()
	for _, c := range []struct {
		name string
		in   *allot.Instance
		want allot.Formulation
	}{
		{"layered_20x10_m64", gen.Instance(gen.Layered(20, 10, 3, rng), gen.FamilyMixed, 64, rng), allot.FormulationMincut},
		{"layered_10x6_m32", gen.Instance(gen.Layered(10, 6, 3, rng), gen.FamilyMixed, 32, rng), allot.FormulationMincut},
		{"layered_60x2_m16", gen.Instance(gen.Layered(60, 2, 3, rng), gen.FamilyMixed, 16, rng), allot.FormulationLazy},
		{"chain_40_m4", gen.Instance(gen.Chain(40), gen.FamilyMixed, 4, rng), allot.FormulationLazy},
	} {
		n := c.in.G.N()
		d := prep.NewWorkspace().Depth(c.in.G)
		if allot.UseMincut(n, c.in.M, d) != (c.want == allot.FormulationMincut) {
			t.Fatalf("%s: n=%d m=%d depth=%d is on the wrong side of the predicate", c.name, n, c.in.M, d)
		}
		frac, err := allot.SolveLPWith(c.in, ws)
		if err != nil {
			t.Fatal(err)
		}
		if frac.Formulation != c.want {
			t.Errorf("%s (depth %d) routed to %q, want %q", c.name, d, frac.Formulation, c.want)
		}
		// A deep instance's lazy solve may need no cut past the seeds
		// (TestLazyCutDiagnostics pins lazy effort on a work-bound one);
		// every sweep crosses at least one breakpoint.
		if frac.Formulation == allot.FormulationMincut && frac.Cuts == 0 {
			t.Errorf("%s: sweep reports no breakpoints", c.name)
		}
	}

	for _, f := range []allot.Formulation{"segment", "dense"} {
		if _, err := allot.SolveLPFormulation(gen.Instance(gen.Chain(3), gen.FamilyMixed, 4, rng), ws, f); err == nil {
			t.Errorf("retired formulation %q did not error", f)
		}
	}
}

// TestUseMincut pins the engine predicate m·D² <= 1.5·n² on the shape
// families it was fitted on: a chain (D = n) reaches the sweep only on
// one machine, a width-2 layered DAG (D = n/2) up to m = 6, a width-8 one
// up to m = 96 and a width-20 one up to m = 600.
func TestUseMincut(t *testing.T) {
	for _, c := range []struct {
		name     string
		n, m, d  int
		wantFlow bool
	}{
		{"chain_n400_m1", 400, 1, 400, true},
		{"chain_n400_m2", 400, 2, 400, false},
		{"chain_n2000_m64", 2000, 64, 2000, false},
		{"layered2_n400_m6", 400, 6, 200, true},
		{"layered2_n400_m7", 400, 7, 200, false},
		{"layered2_n400_m64", 400, 64, 200, false},
		{"layered2_n2000_m64", 2000, 64, 1000, false},
		{"layered8_n96_m16", 96, 16, 12, true},
		{"layered8_n400_m64", 400, 64, 50, true},
		{"layered8_n400_m96", 400, 96, 50, true},
		{"layered8_n400_m97", 400, 97, 50, false},
		{"layered8_n2000_m4", 2000, 4, 250, true},
		{"layered20_n2000_m64", 2000, 64, 100, true},
		{"layered20_n2000_m600", 2000, 600, 100, true},
		{"layered20_n2000_m601", 2000, 601, 100, false},
		{"independent_n10_m64", 10, 64, 1, true},
	} {
		if got := allot.UseMincut(c.n, c.m, c.d); got != c.wantFlow {
			t.Errorf("%s: UseMincut(%d, %d, %d) = %v, want %v", c.name, c.n, c.m, c.d, got, c.wantFlow)
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
