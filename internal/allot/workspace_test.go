package allot_test

import (
	"math/rand"
	"testing"

	"malsched/internal/allot"
	"malsched/internal/gen"
)

// TestSolveLPWithMatchesSolveLP reuses one workspace across a spread of
// instances (shapes, machine sizes, families) and demands byte-identical
// fractional solutions versus the fresh-allocation path.
func TestSolveLPWithMatchesSolveLP(t *testing.T) {
	ws := allot.NewWorkspace()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(10)
		m := 2 + rng.Intn(8)
		in := gen.Instance(gen.ErdosDAG(n, 0.25, rng), gen.FamilyMixed, m, rng)
		fresh, err := allot.SolveLP(in)
		if err != nil {
			t.Fatal(err)
		}
		reused, err := allot.SolveLPWith(in, ws)
		if err != nil {
			t.Fatal(err)
		}
		if fresh.C != reused.C || fresh.L != reused.L || fresh.W != reused.W {
			t.Errorf("trial %d: optimum differs: (%v %v %v) vs (%v %v %v)",
				trial, fresh.C, fresh.L, fresh.W, reused.C, reused.L, reused.W)
		}
		for j := range fresh.X {
			if fresh.X[j] != reused.X[j] || fresh.Wbar[j] != reused.Wbar[j] {
				t.Errorf("trial %d task %d: x/wbar differ", trial, j)
			}
		}
		// Rounding through the workspace must agree too.
		a := allot.Round(in, fresh, 0.26)
		b := allot.RoundWith(in, reused, 0.26, ws)
		for j := range a {
			if a[j] != b[j] {
				t.Errorf("trial %d task %d: alloc %d != %d", trial, j, a[j], b[j])
			}
		}
	}
}

// TestSolveLPWithReuseCutsAllocs verifies the phase-1 hot path allocates
// only the Fractional output once the workspace is warm, on the auto
// route and on each engine pinned (the instance is wide enough for the
// auto route to pick the sweep, so the lazy pin keeps the simplex's hot
// path under the same bound).
func TestSolveLPWithReuseCutsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	in := gen.Instance(gen.ErdosDAG(12, 0.25, rng), gen.FamilyMixed, 8, rng)
	for _, f := range []allot.Formulation{"", allot.FormulationLazy, allot.FormulationMincut} {
		ws := allot.NewWorkspace()
		if _, err := allot.SolveLPFormulation(in, ws, f); err != nil { // warm-up growth
			t.Fatal(err)
		}
		warm := testing.AllocsPerRun(10, func() {
			if _, err := allot.SolveLPFormulation(in, ws, f); err != nil {
				t.Fatal(err)
			}
		})
		// The Fractional result (4 slices + struct) is the only intended
		// allocation; leave slack for the error-path interfaces but fail
		// loudly if tableau-sized allocation creeps back in.
		if warm > 10 {
			t.Errorf("formulation %q: warm solve allocates %v objects per run, want <= 10", f, warm)
		}
		cold := testing.AllocsPerRun(10, func() {
			if _, err := allot.SolveLPFormulation(in, nil, f); err != nil {
				t.Fatal(err)
			}
		})
		if warm >= cold {
			t.Errorf("formulation %q: workspace reuse does not cut allocations: warm %v >= cold %v", f, warm, cold)
		}
	}
}
