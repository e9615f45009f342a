package allot_test

import (
	"math"
	"math/rand"
	"testing"

	"malsched/internal/allot"
	"malsched/internal/dag"
	"malsched/internal/malleable"
)

// TestReferenceNoPhantomUnbounded pins the dense oracle on an instance
// where the tableau's incrementally updated reduced-cost row drifted: after
// ~1500 phase-1 pivots one column read -3.7e-9 (past the pricing
// tolerance) although its true reduced cost is 0, no row passed the ratio
// test, and the oracle reported a phase-1 LP — which minimises a sum of
// artificials and cannot be unbounded — as unbounded. The instance is
// built here rather than committed under testdata/, whose files all join
// the dense-reference suites.
func TestReferenceNoPhantomUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	n := 5 + rng.Intn(150)
	m := []int{4, 8, 16, 32, 64}[rng.Intn(5)]
	p := []float64{0.02, 0.1, 0.3}[rng.Intn(3)]
	if n != 136 || m != 32 {
		t.Fatalf("generator drifted: n=%d m=%d, want 136/32", n, m)
	}
	g := dag.New(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if rng.Float64() < p {
				if err := g.AddEdge(a, b); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tasks := make([]malleable.Task, n)
	for j := range tasks {
		tasks[j] = malleable.RandomConcave("t", 1+rng.Float64()*99, m, rng)
	}
	in := &allot.Instance{G: g, Tasks: tasks, M: m}

	ref, err := allot.SolveLPReference(in)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	for _, f := range []allot.Formulation{allot.FormulationLazy, allot.FormulationMincut} {
		frac, err := allot.SolveLPFormulation(in, allot.NewWorkspace(), f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if rel := math.Abs(frac.C-ref.C) / frac.C; rel > 1e-6 {
			t.Errorf("reference C*=%.10f, %s C*=%.10f: %.2g relative apart", ref.C, f, frac.C, rel)
		}
	}
}
