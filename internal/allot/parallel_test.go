package allot_test

import (
	"reflect"
	"runtime"
	"testing"

	"malsched/internal/allot"
	"malsched/internal/gen"

	"math/rand"
)

// TestParallelSeparationDeterministic pins that a lazy-cut solve is
// byte-identical at every GOMAXPROCS: nothing in it, cut separation
// included, may depend on the worker count.
func TestParallelSeparationDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	in := gen.Instance(gen.Layered(16, 12, 3, rng), gen.FamilyMixed, 16, rng)

	solve := func() *allot.Fractional {
		frac, err := allot.SolveLPFormulation(in, allot.NewWorkspace(), allot.FormulationLazy)
		if err != nil {
			t.Fatal(err)
		}
		return frac
	}

	base := solve()
	if base.Cuts == 0 {
		t.Fatalf("instance generated no lazy cuts; the test exercises nothing")
	}
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		frac := solve()
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(frac, base) {
			t.Errorf("GOMAXPROCS=%d: solve diverged (cuts %d vs %d, C %v vs %v)",
				procs, frac.Cuts, base.Cuts, frac.C, base.C)
		}
	}

	// And a same-workspace repeat must match too (warm-path reuse).
	ws := allot.NewWorkspace()
	a, err := allot.SolveLPWith(in, ws)
	if err != nil {
		t.Fatal(err)
	}
	b, err := allot.SolveLPWith(in, ws)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("warm repeat diverged")
	}
}
