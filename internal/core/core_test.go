package core

import (
	"math"
	"math/rand"
	"testing"

	"malsched/internal/allot"
	"malsched/internal/dag"
	"malsched/internal/gen"
	"malsched/internal/malleable"
	"malsched/internal/params"
	"malsched/internal/solver"
)

func smallInstance(seed int64, n, m int, density float64) *allot.Instance {
	r := rand.New(rand.NewSource(seed))
	g := gen.ErdosDAG(n, density, r)
	return gen.Instance(g, gen.FamilyMixed, m, r)
}

func TestSolveChain(t *testing.T) {
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
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(g); err != nil {
		t.Fatal(err)
	}
	// Optimal is 4 (both tasks on 2 processors, back to back); the proven
	// guarantee for m=2 is a factor 2.
	if res.Makespan > 2*res.LowerBound+1e-6 {
		t.Errorf("makespan %v exceeds 2x lower bound %v", res.Makespan, res.LowerBound)
	}
	if res.LowerBound < 4-1e-6 {
		t.Errorf("lower bound %v, want >= 4", res.LowerBound)
	}
}

func TestSolveUsesPaperParams(t *testing.T) {
	in := smallInstance(1, 8, 6, 0.3)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := params.Choose(6)
	if res.Params != want {
		t.Errorf("params = %+v, want %+v", res.Params, want)
	}
}

func TestSolveOverrides(t *testing.T) {
	in := smallInstance(2, 6, 4, 0.3)
	res, err := Solve(in, Options{Rho: 0.5, RhoSet: true, Mu: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Params.Rho != 0.5 || res.Params.Mu != 1 {
		t.Errorf("overrides ignored: %+v", res.Params)
	}
	for j, l := range res.Alpha {
		if l > 1 {
			t.Errorf("task %d allotted %d processors with mu=1", j, l)
		}
	}
	if _, err := Solve(in, Options{Rho: 1.5, RhoSet: true}); err == nil {
		t.Error("rho=1.5 accepted")
	}
	if _, err := Solve(in, Options{Mu: 99}); err == nil {
		t.Error("mu>m accepted")
	}
}

// The headline guarantee: on random instances the realised makespan is
// within the proven ratio r(m) of the LP lower bound (which is itself a
// lower bound on OPT), i.e. the Theorem 4.1 inequality holds empirically.
func TestGuaranteeWithinProvenRatio(t *testing.T) {
	seeds := []int64{3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	for _, seed := range seeds {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		m := 2 + r.Intn(7)
		in := gen.Instance(gen.ErdosDAG(n, 0.25, r), gen.FamilyMixed, m, r)
		res, err := Solve(in, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Guarantee > res.Params.R+1e-6 {
			t.Errorf("seed %d (n=%d m=%d): guarantee %.4f exceeds proven ratio %.4f",
				seed, n, m, res.Guarantee, res.Params.R)
		}
	}
}

// Alpha never exceeds AlphaPrime or mu; AlphaPrime comes from the rounding.
func TestAllotmentChain(t *testing.T) {
	in := smallInstance(13, 9, 8, 0.3)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j := range res.Alpha {
		if res.Alpha[j] > res.AlphaPrime[j] && res.Alpha[j] > res.Params.Mu {
			t.Errorf("task %d: alpha=%d alphaPrime=%d mu=%d", j, res.Alpha[j], res.AlphaPrime[j], res.Params.Mu)
		}
		if res.Alpha[j] > res.Params.Mu {
			t.Errorf("task %d: alpha=%d exceeds mu=%d", j, res.Alpha[j], res.Params.Mu)
		}
	}
}

func TestSolveDAGFamilies(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	graphs := map[string]*dag.DAG{
		"chain":       gen.Chain(6),
		"independent": gen.Independent(6),
		"forkjoin":    gen.ForkJoin(5),
		"outtree":     gen.OutTree(7, r),
		"layered":     gen.Layered(3, 3, 2, r),
		"sp":          gen.SeriesParallel(6, r),
		"cholesky":    gen.Cholesky(3),
	}
	for name, g := range graphs {
		in := gen.Instance(g, gen.FamilyPowerLaw, 4, r)
		res, err := Solve(in, Options{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := res.Schedule.Verify(g); err != nil {
			t.Errorf("%s: infeasible: %v", name, err)
		}
		if res.Guarantee > res.Params.R+1e-6 {
			t.Errorf("%s: guarantee %.4f > proven %.4f", name, res.Guarantee, res.Params.R)
		}
	}
}

func TestSolveM1(t *testing.T) {
	in := smallInstance(15, 5, 1, 0.4)
	res, err := Solve(in, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// On one processor the schedule is exact: makespan = total work.
	total := 0.0
	for _, task := range in.Tasks {
		total += task.Time(1)
	}
	if math.Abs(res.Makespan-total) > 1e-6 {
		t.Errorf("m=1 makespan %v, want %v", res.Makespan, total)
	}
}

func TestSolveRejectsInvalidInstance(t *testing.T) {
	in := &allot.Instance{G: dag.New(1), Tasks: []malleable.Task{malleable.NewTask("bad", []float64{1, 2})}, M: 2}
	if _, err := Solve(in, Options{}); err == nil {
		t.Error("assumption-violating instance accepted")
	}
}

// TestMincutPinCaptureIsBestEffort: under a mincut pin, as on the routed
// sweep, CaptureLP yields no snapshot and a WarmLP snapshot is ignored;
// neither is an error, and the answer is the cold mincut solve's.
func TestMincutPinCaptureIsBestEffort(t *testing.T) {
	in := smallInstance(21, 12, 8, 0.3)
	lazy, err := Solve(in, Options{CaptureLP: true, Formulation: allot.FormulationLazy})
	if err != nil {
		t.Fatal(err)
	}
	if lazy.LPSnapshot == nil {
		t.Fatal("lazy-pinned capture returned no snapshot")
	}
	cold, err := Solve(in, Options{Formulation: allot.FormulationMincut})
	if err != nil {
		t.Fatal(err)
	}
	for name, opt := range map[string]Options{
		"capture":      {Formulation: allot.FormulationMincut, CaptureLP: true},
		"warm":         {Formulation: allot.FormulationMincut, WarmLP: lazy.LPSnapshot},
		"capture+warm": {Formulation: allot.FormulationMincut, CaptureLP: true, WarmLP: lazy.LPSnapshot},
	} {
		res, err := SolveWith(in, opt, solver.NewWorkspace())
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if res.LPSnapshot != nil {
			t.Errorf("%s: mincut solve returned a snapshot", name)
		}
		if res.Fractional.Formulation != allot.FormulationMincut || res.Makespan != cold.Makespan {
			t.Errorf("%s: %s makespan %v, want mincut %v", name, res.Fractional.Formulation, res.Makespan, cold.Makespan)
		}
	}
}
