// Benchmarks regenerating every table and figure of the paper (experiments
// E1-E7 of EXPERIMENTS.md) plus end-to-end, ablation and phase-2 scaling
// benchmarks (E8-E10). Each BenchmarkTableN/BenchmarkFigN run both times
// the regeneration and re-verifies the headline numbers, so
// `go test -bench=. -benchmem` is the full reproduction harness.
package malsched

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"malsched/internal/allot"
	"malsched/internal/baseline"
	"malsched/internal/bruteforce"
	"malsched/internal/core"
	"malsched/internal/dag"
	"malsched/internal/gen"
	"malsched/internal/listsched"
	"malsched/internal/malleable"
	"malsched/internal/nlp"
	"malsched/internal/params"
	"malsched/internal/prep"
	"malsched/internal/solver"
)

// E1 / Table 2: parameter and ratio table of the paper's algorithm.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := params.Table2(33)
		if len(rows) != 32 || math.Abs(rows[31].R-3.2144) > 5e-5 {
			b.Fatalf("table 2 corrupt: %+v", rows[len(rows)-1])
		}
	}
}

// E2 / Table 3: the LTW baseline ratio table.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := baseline.Table3(33)
		if len(rows) != 32 || math.Abs(rows[0].R-4) > 1e-9 {
			b.Fatalf("table 3 corrupt: %+v", rows[0])
		}
	}
}

// E3 / Table 4: grid solution of the min-max NLP (18). The paper's grid
// step is 1e-4; benchmark one representative m at full resolution.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := nlp.GridSolve(33, 1e-4)
		if math.Abs(r.R-3.1794) > 5e-5 {
			b.Fatalf("table 4 entry m=33 corrupt: %+v", r)
		}
	}
}

// E4 / Fig 1: speedup and work-function series for the power-law task.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		task := malleable.PowerLaw("example", 100, 0.6, 64)
		f := malleable.NewFrontier(task, 64)
		if err := task.CheckAssumption2(); err != nil {
			b.Fatal(err)
		}
		if err := task.CheckWorkConvexInTime(); err != nil {
			b.Fatal(err)
		}
		if f.Segments() != 63 {
			b.Fatalf("frontier segments = %d", f.Segments())
		}
	}
}

// E5 / Fig 2: a full two-phase schedule plus heavy-path extraction and
// slot classification.
func BenchmarkFig2(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := gen.Layered(4, 3, 2, rng)
	in := gen.Instance(g, gen.FamilyPowerLaw, 8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Solve(in, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		path := res.Schedule.HeavyPath(in.G, res.Params.Mu)
		if len(path) == 0 {
			b.Fatal("empty heavy path")
		}
		cls := res.Schedule.Classify(res.Params.Mu)
		if math.Abs(cls.T1+cls.T2+cls.T3-res.Makespan) > 1e-6 {
			b.Fatal("slot classes do not partition the horizon")
		}
	}
}

// E6 / Figs 3-4: Lemma 4.6 unique-crossing computation on the A/B branches.
func BenchmarkFig3and4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		A, B := nlp.ABFunctions(16, 0.26)
		x0, minimises, found := nlp.UniqueCrossing(A, B, 1, 8.5, 4000)
		if !found || !minimises {
			b.Fatalf("crossing failed: x0=%v", x0)
		}
	}
}

// E7 / Section 4.3: asymptotic polynomial roots and limits.
func BenchmarkAsymptotics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rho, beta, r := nlp.AsymptoticOptimum()
		if math.Abs(rho-0.261917) > 1e-5 || math.Abs(beta-0.325907) > 1e-5 || math.Abs(r-3.291913) > 1e-5 {
			b.Fatalf("asymptotics corrupt: %v %v %v", rho, beta, r)
		}
	}
}

// E8: end-to-end two-phase algorithm across instance scales. The LP phase
// dominates; sizes stay inside the dense-simplex envelope (DESIGN.md §7).
func BenchmarkEndToEnd(b *testing.B) {
	for _, cfg := range []struct{ n, m int }{{10, 4}, {20, 8}, {40, 16}, {60, 32}} {
		b.Run(fmt.Sprintf("n%d_m%d", cfg.n, cfg.m), func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			in := gen.Instance(gen.ErdosDAG(cfg.n, 0.2, rng), gen.FamilyMixed, cfg.m, rng)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(in, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Guarantee > res.Params.R+1e-6 {
					b.Fatalf("guarantee %v exceeds proven %v", res.Guarantee, res.Params.R)
				}
			}
		})
	}
}

// phase1Scenario is one phase-1 LP workload (EXPERIMENTS.md E11): the
// sizes beyond a few hundred tasks were unreachable under the dense
// tableau (its footprint is O((n·m + E)^2) doubles) and exist only since
// the lazy-cut sparse revised simplex rewrite.
type phase1Scenario struct {
	name string
	n, m int
	dag  string // "erdos", "layered" (width 20) or "deep" (width 2)
	p    float64
	seed int64
	// force pins the phase-1 formulation ("" = the production auto
	// route, allot.UseMincut).
	force allot.Formulation
}

var phase1Scenarios = []phase1Scenario{
	{"erdos_n24_m8", 24, 8, "erdos", 0.2, 9, ""}, // the historical small scenario
	// Wide shapes: auto sends all three to the sweep.
	{"layered_n200_m16", 200, 16, "layered", 0, 9, ""},
	{"layered_n500_m32", 500, 32, "layered", 0, 9, ""},
	// Dense random precedence at scale: the scenario where transitive
	// reduction (internal/prep) pays — ~2/3 of its arcs are implied.
	{"erdos_n500_m48", 500, 48, "erdos", 0.03, 9, ""},
	// Deep shapes: auto keeps them on the lazy simplex, where the sweep's
	// breakpoint count, which grows with depth, would cost several times
	// more (EXPERIMENTS.md E17, E20). The pin beside the n=400 one shows
	// the auto route costs nothing over the engine it picks.
	{"deep_n400_m64", 400, 64, "deep", 0, 9, ""},
	{"deep_n400_m64_lazy", 400, 64, "deep", 0, 9, allot.FormulationLazy},
	{"deep_n2000_m64", 2000, 64, "deep", 0, 9, ""},
	// The parametric min-cut sweep on the n=2000/m=64 headline scenario
	// (auto routes it here too; the pin keeps the measurement stable
	// against router retunes), and the scale the lazy simplex never
	// reached.
	{"layered_n2000_m64_mincut", 2000, 64, "layered", 0, 9, allot.FormulationMincut},
	{"layered_n10000_m64", 10000, 64, "layered", 0, 9, ""},
}

func (sc phase1Scenario) build() *allot.Instance {
	rng := rand.New(rand.NewSource(sc.seed))
	var g *dag.DAG
	switch sc.dag {
	case "layered":
		w := 20
		g = gen.Layered(sc.n/w, w, 3, rng)
	case "deep":
		g = gen.Layered(sc.n/2, 2, 3, rng)
	default:
		g = gen.ErdosDAG(sc.n, sc.p, rng)
	}
	return gen.Instance(g, gen.FamilyMixed, sc.m, rng)
}

// E8/E11 (phase 1): the lazy-cut sparse LP across instance scales, run
// through a reusable workspace the way the engine's workers and any
// serious repeated-solve caller run it.
func BenchmarkPhase1LP(b *testing.B) {
	for _, sc := range phase1Scenarios {
		b.Run(sc.name, func(b *testing.B) {
			in := sc.build()
			ws := solver.NewWorkspace()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Exactly the production phase-1 path (core.SolveWith):
				// preprocess, then solve the LP on the reduced instance.
				red := ws.Reduce(in)
				if _, err := allot.SolveLPFormulation(red, ws.LP(), sc.force); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E20: the grid behind allot.UseMincut. Every shape runs three ways on
// the production path (prep, then phase 1): each engine pinned, and the
// auto route, which also reports the shape's task count, depth (tasks on
// the longest path) and frontier segment mass, so the grid can be
// re-scored offline against any rule. Families: layered width 2, 4, 8 and
// 20, Erdős p=0.3 and p=0.05, and chains. n=100–400 at m=16/32/64 for
// every family, m=2/4/8 at n=400 for every family and at n=2000 for the
// width-8 and chain families, and n=1000/2000 spot checks at m=16/64.
// Local only (several minutes): run with
// -bench Phase1Shapes -benchtime=300ms.
func BenchmarkPhase1Shapes(b *testing.B) {
	type shape struct {
		fam  string
		n, m int
	}
	families := []string{"layered2", "layered4", "layered8", "layered20", "erdos0.3", "erdos0.05", "chain"}
	var shapes []shape
	for _, fam := range families {
		for _, n := range []int{100, 200, 400} {
			for _, m := range []int{16, 32, 64} {
				shapes = append(shapes, shape{fam, n, m})
			}
		}
		for _, m := range []int{2, 4, 8} {
			shapes = append(shapes, shape{fam, 400, m})
			if fam == "layered8" || fam == "chain" {
				shapes = append(shapes, shape{fam, 2000, m})
			}
		}
		if fam != "erdos0.3" && fam != "layered4" {
			for _, n := range []int{1000, 2000} {
				for _, m := range []int{16, 64} {
					shapes = append(shapes, shape{fam, n, m})
				}
			}
		}
	}
	for _, sh := range shapes {
		n, m := sh.n, sh.m
		rng := rand.New(rand.NewSource(int64(1000*n + m)))
		var g *dag.DAG
		switch sh.fam {
		case "layered2", "layered4", "layered8", "layered20":
			var w int
			fmt.Sscanf(sh.fam, "layered%d", &w)
			g = gen.Layered(n/w, w, 3, rng)
		case "erdos0.3":
			g = gen.ErdosDAG(n, 0.3, rng)
		case "erdos0.05":
			g = gen.ErdosDAG(n, 0.05, rng)
		default:
			g = gen.Chain(n)
		}
		in := gen.Instance(g, gen.FamilyMixed, m, rng)
		for _, f := range []allot.Formulation{allot.FormulationLazy, allot.FormulationMincut, ""} {
			name := string(f)
			if f == "" {
				name = "auto"
			}
			b.Run(fmt.Sprintf("%s_n%d_m%d/%s", sh.fam, n, m, name), func(b *testing.B) {
				ws := solver.NewWorkspace()
				for i := 0; i < b.N; i++ {
					if _, err := allot.SolveLPFormulation(ws.Reduce(in), ws.LP(), f); err != nil {
						b.Fatal(err)
					}
				}
				if f == "" {
					mass := 0
					for _, fr := range in.Frontiers() {
						mass += fr.Segments()
					}
					b.ReportMetric(float64(g.N()), "tasks")
					b.ReportMetric(float64(prep.NewWorkspace().Depth(g)), "depth")
					b.ReportMetric(float64(mass), "segs")
				}
			})
		}
	}
}

// E11 (baseline): the retained full dense build on the scenarios small
// enough for its O((rows+cols)^2) tableau; compare against
// BenchmarkPhase1LP on the same scenarios for the rewrite's speedup.
func BenchmarkPhase1Reference(b *testing.B) {
	for _, sc := range phase1Scenarios {
		if sc.n > 200 {
			continue // the dense tableau at n=500/m=32 already needs ~10 GB
		}
		b.Run(sc.name, func(b *testing.B) {
			in := sc.build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := allot.SolveLPReference(in); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWorkspaceReuse isolates what workspace reuse buys on the phase-1
// LP: "fresh" allocates every solver buffer per solve (the seed path),
// "reused" runs warm. Compare allocs/op and B/op between the two.
func BenchmarkWorkspaceReuse(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	in := gen.Instance(gen.ErdosDAG(24, 0.2, rng), gen.FamilyMixed, 8, rng)
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := allot.SolveLP(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		ws := allot.NewWorkspace()
		if _, err := allot.SolveLPWith(in, ws); err != nil {
			b.Fatal(err) // warm-up growth outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := allot.SolveLPWith(in, ws); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPoolThroughput pushes a fixed batch through Pool.SolveBatch at
// increasing worker counts; ns/op is the wall-clock per batch, so the
// speedup across sub-benchmarks is the scaling curve.
func BenchmarkPoolThroughput(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	const batch = 32
	ins := make([]*Instance, batch)
	for i := range ins {
		ai := gen.Instance(gen.ErdosDAG(16, 0.2, rng), gen.FamilyMixed, 8, rng)
		ins[i] = &Instance{M: ai.M, Tasks: ai.Tasks, Edges: ai.G.Edges()}
	}
	workerCounts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		workerCounts = append(workerCounts, p)
	}
	for _, w := range workerCounts {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			pool := NewPool(w)
			defer pool.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, o := range pool.SolveBatch(context.Background(), ins) {
					if o.Err != nil {
						b.Fatalf("instance %d: %v", j, o.Err)
					}
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "solves/s")
		})
	}
}

// E8 (phase 2): LIST on a fixed allotment.
func BenchmarkPhase2List(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	in := gen.Instance(gen.ErdosDAG(60, 0.2, rng), gen.FamilyMixed, 16, rng)
	alloc := make([]int, 60)
	for j := range alloc {
		alloc[j] = 1 + rng.Intn(5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := listsched.Run(in, alloc); err != nil {
			b.Fatal(err)
		}
	}
}

// listScenario is one large-n phase-2 workload (EXPERIMENTS.md E10): the
// instance is generated deterministically, the allotment is a fixed random
// cap, and both LIST implementations can be driven on it.
type listScenario struct {
	name   string
	n, m   int
	dag    string // "layered", "erdos" or "independent"
	p      float64
	seed   int64
	maxCap int // random allotment cap; 0 means saturated (alloc = m)
}

var listScenarios = []listScenario{
	{"layered_n1000_m64", 1000, 64, "layered", 0, 20, 16},
	{"layered_n2000_m64", 2000, 64, "layered", 0, 21, 16},
	{"erdos_n2000_m128", 2000, 128, "erdos", 0.004, 22, 32},
	{"layered_n10000_m256", 10000, 256, "layered", 0, 23, 32},
	// The adversarial shape: every task allotted the whole machine, so
	// every commit raises the entire occupied horizon. Quadratic queue
	// churn for the retained lazy heap (RunLazyHeap), one wholesale bucket
	// advance per commit for the calendar queue (see the package doc of
	// internal/listsched). The reference needs ~12s at n=500 (kept
	// runnable for the EXPERIMENTS.md E10/E15 speedup figures) and minutes
	// beyond.
	{"independent_full_n500_m16", 500, 16, "independent", 0, 25, 0},
	{"independent_full_n2000_m16", 2000, 16, "independent", 0, 24, 0},
	// Extreme scale (E15): 10^5-10^6 tasks through the tiered timeline +
	// bucket queue, with shared processing-time vectors (gen.TasksShared)
	// so the instances themselves stay cheap to hold. The million-task
	// scenario is the serving demo's workload: one request, single-digit
	// seconds.
	{"layered_n100000_m256", 100_000, 256, "layered", 0, 26, 32},
	{"independent_full_n100000_m16", 100_000, 16, "independent", 0, 27, 0},
	// Mixed allotments with no precedence: the whole instance is READY at
	// once and heavy-allotment classes keep getting leapfrogged by light
	// tasks, so every implementation re-examines them repeatedly. The
	// class-grouped queue re-files whole (duration, allotment) classes per
	// probe instead of single tasks, ~16x faster than the retained lazy
	// heap here (E15) but still superlinear — which is why the million-task
	// scenario below uses the saturated shape, where wholesale bucket
	// advance makes the queue linear by construction.
	{"independent_mixed_n20000_m64", 20_000, 64, "independent", 0, 29, 16},
	{"independent_full_n1000000_m64", 1_000_000, 64, "independent", 0, 28, 0},
}

func (sc listScenario) build(b testing.TB) (*allot.Instance, []int) {
	rng := rand.New(rand.NewSource(sc.seed))
	var g *dag.DAG
	switch sc.dag {
	case "layered":
		w := 20
		g = gen.Layered(sc.n/w, w, 3, rng)
	case "erdos":
		g = gen.ErdosDAG(sc.n, sc.p, rng)
	case "independent":
		g = gen.Independent(sc.n)
	default:
		b.Fatalf("unknown dag %q", sc.dag)
	}
	var in *allot.Instance
	if sc.n >= 20_000 {
		// Shared processing-time vectors: per-task vectors at n=10^6/m=64
		// would cost ~512 MB before the scheduler even starts, and a
		// bounded set of task types is also what the class-grouped ready
		// queue exploits at scale (64 distinct vectors here).
		in = gen.InstanceShared(g, gen.FamilyMixed, sc.m, 64, rng)
	} else {
		in = gen.Instance(g, gen.FamilyMixed, sc.m, rng)
	}
	alloc := make([]int, g.N())
	for j := range alloc {
		if sc.maxCap == 0 {
			alloc[j] = sc.m
		} else {
			alloc[j] = 1 + rng.Intn(sc.maxCap)
		}
	}
	return in, alloc
}

// E10: the phase-2 profile scheduler at production scale (n up to 10 000,
// m up to 256). Compare against BenchmarkListReference on the same
// scenarios for the speedup of the incremental-profile rewrite.
func BenchmarkList(b *testing.B) {
	for _, sc := range listScenarios {
		b.Run(sc.name, func(b *testing.B) {
			in, alloc := sc.build(b)
			ws := listsched.NewWorkspace()
			if _, err := listsched.RunWith(in, alloc, ws); err != nil {
				b.Fatal(err) // warm-up growth outside the timed loop
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := listsched.RunWith(in, alloc, ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E10 (baseline): the retained seed implementation of LIST on the smaller
// large-n scenarios, including the n=500 saturated shape (~12s per run —
// excluded from the CI smoke selection, which takes only the layered
// sub-benchmarks). The n=10000 and larger saturated scenarios are omitted
// entirely: the quadratic rescans make them minutes per run.
func BenchmarkListReference(b *testing.B) {
	for _, sc := range listScenarios {
		if sc.n > 2000 || (sc.maxCap == 0 && sc.n > 500) {
			continue
		}
		b.Run(sc.name, func(b *testing.B) {
			in, alloc := sc.build(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := listsched.RunReference(in, alloc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// E8 (baseline comparison): LTW on the same instance as BenchmarkEndToEnd.
func BenchmarkBaselineLTW(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	in := gen.Instance(gen.ErdosDAG(20, 0.2, rng), gen.FamilyMixed, 8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := baseline.LTW(in); err != nil {
			b.Fatal(err)
		}
	}
}

// E9: exact ratio against brute-force OPT on a tiny instance.
func BenchmarkExactRatio(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	in := gen.Instance(gen.ErdosDAG(5, 0.35, rng), gen.FamilyMixed, 3, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := bruteforce.Optimal(in)
		res, err := core.Solve(in, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Makespan/opt > res.Params.R+1e-6 {
			b.Fatalf("ratio vs OPT %v exceeds proven %v", res.Makespan/opt, res.Params.R)
		}
	}
}

// Ablation: LP formulation (9) (work variables + supporting lines) versus
// the paper Remark's assignment formulation (10) — equal optima proven in
// the paper and verified in tests; this measures the solver-cost tradeoff.
func BenchmarkAblationLPFormulation(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	in := gen.Instance(gen.ErdosDAG(16, 0.2, rng), gen.FamilyMixed, 8, rng)
	b.Run("lp9", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := allot.SolveLP(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lp10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := allot.SolveLP10(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ablation: the rounding parameter rho (DESIGN.md calls out rho-hat = 0.26
// as the paper's key choice versus LTW's 0.5).
func BenchmarkAblationRho(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	in := gen.Instance(gen.Layered(4, 4, 2, rng), gen.FamilyPowerLaw, 12, rng)
	for _, rho := range []float64{0, 0.26, 0.5, 1} {
		b.Run(fmt.Sprintf("rho%.2f", rho), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(in, core.Options{Rho: rho, RhoSet: true})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Guarantee, "guarantee")
			}
		})
	}
}

// Ablation: the allotment cap mu.
func BenchmarkAblationMu(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	in := gen.Instance(gen.Layered(4, 4, 2, rng), gen.FamilyPowerLaw, 12, rng)
	for _, mu := range []int{1, 3, 5, 6} {
		b.Run(fmt.Sprintf("mu%d", mu), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(in, core.Options{Mu: mu})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Guarantee, "guarantee")
			}
		})
	}
}
