package allot_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"malsched/internal/allot"
	"malsched/internal/gen"
)

// The tests below are named for the segment envelope they exercise: the
// slope-representative fill pieces of repFill, which the min-cut network
// uses as its crashing curves. They drive it through the min-cut pin,
// against the dense reference and the lazy loop.

// TestSegmentFormulationMatchesReference checks the min-cut route
// against the dense reference on the random DAG/task families the lazy
// differential test covers: equal optima to 1e-6 relative, in-domain
// processing times, work values on the frontier, and an intact
// lower-bound certificate.
func TestSegmentFormulationMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	ws := allot.NewWorkspace()
	for trial := 0; trial < 36; trial++ {
		family := lazyFamilies[trial%len(lazyFamilies)]
		n := 4 + rng.Intn(24)
		m := 2 + rng.Intn(15)
		g := buildDAG(family, n, 0.1+0.3*rng.Float64(), rng)
		in := gen.Instance(g, gen.FamilyMixed, m, rng)
		t.Run(fmt.Sprintf("%s_n%d_m%d", family, g.N(), m), func(t *testing.T) {
			checkAgainstReference(t, in, ws, allot.FormulationMincut)
		})
	}
}

// TestSegmentFormulationLargerM drives the dense-frontier machine sizes
// (many, nearly collinear segments) through the min-cut route against
// the dense reference.
func TestSegmentFormulationLargerM(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	ws := allot.NewWorkspace()
	for _, cfg := range []struct {
		family string
		n, m   int
	}{
		// The near-collinear-segment density is driven by m; n stays
		// small so the dense reference keeps the -race run tractable.
		{"layered", 28, 64},
		{"erdos", 32, 48},
		{"forkjoin", 26, 64},
		{"chain", 30, 32},
		{"independent", 32, 64},
	} {
		g := buildDAG(cfg.family, cfg.n, 0.15, rng)
		in := gen.Instance(g, gen.FamilyMixed, cfg.m, rng)
		t.Run(fmt.Sprintf("%s_n%d_m%d", cfg.family, g.N(), cfg.m), func(t *testing.T) {
			checkAgainstReference(t, in, ws, allot.FormulationMincut)
		})
	}
}

// TestSegmentAgainstLazy pins the two production routes to each other on
// a mid-size instance neither differential oracle reaches comfortably:
// they solve the same slope-representative relaxation, so the optima
// agree to the cut tolerance.
func TestSegmentAgainstLazy(t *testing.T) {
	rng := rand.New(rand.NewSource(707))
	in := gen.Instance(gen.Layered(10, 8, 3, rng), gen.FamilyMixed, 24, rng)

	solve := func(f allot.Formulation) *allot.Fractional {
		frac, err := allot.SolveLPFormulation(in, allot.NewWorkspace(), f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if frac.Formulation != f {
			t.Fatalf("pinned %s, solved by %s", f, frac.Formulation)
		}
		return frac
	}
	lazy, mc := solve(allot.FormulationLazy), solve(allot.FormulationMincut)
	if d := math.Abs(lazy.C - mc.C); d > 1e-6*(1+math.Abs(lazy.C)) {
		t.Errorf("routes disagree: lazy C=%v mincut C=%v", lazy.C, mc.C)
	}
}
