package allot_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"malsched/internal/allot"
	"malsched/internal/bruteforce"
	"malsched/internal/dag"
	"malsched/internal/gen"
	"malsched/internal/malleable"
)

func buildDAG(family string, n int, p float64, rng *rand.Rand) *dag.DAG {
	switch family {
	case "chain":
		return gen.Chain(n)
	case "independent":
		return gen.Independent(n)
	case "forkjoin":
		return gen.ForkJoin(n - 2)
	case "layered":
		w := 4
		return gen.Layered((n+w-1)/w, w, 3, rng)
	case "outtree":
		return gen.OutTree(n, rng)
	case "erdos":
		return gen.ErdosDAG(n, p, rng)
	default:
		panic("unknown dag family " + family)
	}
}

var lazyFamilies = []string{"chain", "independent", "forkjoin", "layered", "outtree", "erdos"}

// checkAgainstReference solves the instance with the lazy sparse path and
// the full dense reference and verifies (a) the optima agree to 1e-6
// relative — the LP optimum is unique even when the optimal vertex is
// not, so only the objective is pinned — and (b) the sparse solution is
// feasible for the COMPLETE LP (9): every supporting line of every task
// holds at (x*_j, w_j(x*_j)) by construction, the certified relation
// max{L*, W*/m} <= C* holds, and the processing times sit inside their
// frontier domains.
func checkAgainstReference(t *testing.T, in *allot.Instance, ws *allot.Workspace, f allot.Formulation) {
	t.Helper()
	sparse, err := allot.SolveLPFormulation(in, ws, f)
	if err != nil {
		t.Fatalf("sparse: %v", err)
	}
	ref, err := allot.SolveLPReference(in)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	tol := 1e-6 * (1 + math.Abs(ref.C))
	if math.Abs(sparse.C-ref.C) > tol {
		t.Errorf("optimum differs: sparse C=%v reference C=%v (cuts=%d rounds=%d)",
			sparse.C, ref.C, sparse.Cuts, sparse.Rounds)
	}
	fronts := in.Frontiers()
	for j := range fronts {
		f := fronts[j]
		if sparse.X[j] < f.XMin()-1e-9 || sparse.X[j] > f.XMax()+1e-9 {
			t.Errorf("task %d: x*=%v outside [%v, %v]", j, sparse.X[j], f.XMin(), f.XMax())
		}
		if w := f.WorkAt(sparse.X[j]); math.Abs(w-sparse.Wbar[j]) > 1e-6*(1+w) {
			t.Errorf("task %d: Wbar=%v != w(x*)=%v", j, sparse.Wbar[j], w)
		}
	}
	lb := math.Max(sparse.L, sparse.W/float64(in.M))
	if lb > sparse.C+tol {
		t.Errorf("certificate broken: max{L=%v, W/m=%v} > C=%v", sparse.L, sparse.W/float64(in.M), sparse.C)
	}
}

// TestSolveLPMatchesReference is the acceptance differential test: the
// lazy sparse phase 1 against the retained full dense build across six
// random DAG families, machine sizes and task families, through one
// shared workspace (reuse must not leak state between instances).
func TestSolveLPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ws := allot.NewWorkspace()
	for trial := 0; trial < 36; trial++ {
		family := lazyFamilies[trial%len(lazyFamilies)]
		n := 4 + rng.Intn(24)
		m := 2 + rng.Intn(15)
		g := buildDAG(family, n, 0.1+0.3*rng.Float64(), rng)
		in := gen.Instance(g, gen.FamilyMixed, m, rng)
		t.Run(fmt.Sprintf("%s_n%d_m%d", family, g.N(), m), func(t *testing.T) {
			checkAgainstReference(t, in, ws, "")
		})
	}
}

// TestSolveLPMatchesReferenceLargerM drives machine sizes where the
// frontier segments get dense and nearly collinear — the shapes that
// exercise the slope-representative cut filter and the numerical
// stability machinery.
func TestSolveLPMatchesReferenceLargerM(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	ws := allot.NewWorkspace()
	for _, cfg := range []struct {
		family string
		n, m   int
	}{
		{"layered", 40, 64},
		{"erdos", 32, 48},
		{"forkjoin", 26, 64},
	} {
		g := buildDAG(cfg.family, cfg.n, 0.15, rng)
		in := gen.Instance(g, gen.FamilyMixed, cfg.m, rng)
		t.Run(fmt.Sprintf("%s_n%d_m%d", cfg.family, g.N(), cfg.m), func(t *testing.T) {
			checkAgainstReference(t, in, ws, "")
		})
	}
}

// TestSolveLPBelowBruteforceOptimal closes the loop on tiny instances:
// the LP optimum is a lower bound on the true integral optimum (Eq. 11),
// so C* <= OPT must hold against exhaustive search, for both the sparse
// lazy solver and the dense reference.
func TestSolveLPBelowBruteforceOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	for trial := 0; trial < 12; trial++ {
		family := lazyFamilies[trial%len(lazyFamilies)]
		n := 3 + rng.Intn(3)
		m := 2 + rng.Intn(2)
		g := buildDAG(family, n, 0.3, rng)
		in := gen.Instance(g, gen.FamilyMixed, m, rng)
		opt := bruteforce.Optimal(in)
		sparse, err := allot.SolveLP(in)
		if err != nil {
			t.Fatalf("trial %d: sparse: %v", trial, err)
		}
		ref, err := allot.SolveLPReference(in)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		eps := 1e-6 * (1 + opt)
		if sparse.C > opt+eps {
			t.Errorf("trial %d (%s): sparse C*=%v exceeds brute-force OPT=%v", trial, family, sparse.C, opt)
		}
		if ref.C > opt+eps {
			t.Errorf("trial %d (%s): reference C*=%v exceeds brute-force OPT=%v", trial, family, ref.C, opt)
		}
	}
}

// TestLazyCutDiagnostics checks the Fractional diagnostics are wired: a
// single-segment frontier needs no lazy cuts at all, while a work-bound
// many-segment instance generates some. Both shapes are wide enough for
// the auto route to pick the sweep, so both pin the lazy engine.
func TestLazyCutDiagnostics(t *testing.T) {
	// Perfect-speedup tasks on m=2: one segment per frontier, the two
	// seeded endpoint lines coincide, nothing lazy to add.
	g := dag.New(2)
	g.MustEdge(0, 1)
	in := &allot.Instance{
		G: g,
		Tasks: []malleable.Task{
			malleable.NewTask("a", []float64{4, 2}),
			malleable.NewTask("b", []float64{4, 2}),
		},
		M: 2,
	}
	frac, err := allot.SolveLPFormulation(in, nil, allot.FormulationLazy)
	if err != nil {
		t.Fatal(err)
	}
	if frac.Cuts != 0 || frac.Rounds != 0 {
		t.Errorf("single-segment frontiers grew %d cuts in %d rounds; want none", frac.Cuts, frac.Rounds)
	}

	// A work-bound mixed instance on a wide machine must drive the lazy
	// separation through at least one round of violated cuts.
	rng := rand.New(rand.NewSource(404))
	in2 := gen.Instance(gen.Layered(10, 6, 3, rng), gen.FamilyMixed, 32, rng)
	frac2, err := allot.SolveLPFormulation(in2, nil, allot.FormulationLazy)
	if err != nil {
		t.Fatal(err)
	}
	if frac2.Rounds == 0 || frac2.Cuts == 0 {
		t.Errorf("work-bound instance generated no lazy cuts (cuts=%d rounds=%d)", frac2.Cuts, frac2.Rounds)
	}
}
