// Command experiments runs the empirical study (experiments E8/E9 of
// EXPERIMENTS.md): it measures realised makespans of the two-phase algorithm and
// the baselines against the LP lower bound across DAG families, task
// families and machine sizes, and (with -exact) against brute-force optimal
// makespans on tiny instances. The paper proves a worst-case ratio; the
// study confirms the proven bound holds and shows typical-case quality.
//
// The trial grid fans out across an internal/engine worker pool (-workers,
// default GOMAXPROCS), so wall-clock scales with cores while instance
// generation — and therefore every number printed — stays deterministic
// for a fixed -seed regardless of the worker count.
//
// -phase1 runs the phase-1 LP scaling study instead (EXPERIMENTS.md E11):
// the lazy-cut sparse simplex across instance sizes up to -phase1max
// tasks, reporting solve time, generated cuts and separation rounds.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"malsched"
	"malsched/internal/allot"
	"malsched/internal/baseline"
	"malsched/internal/bruteforce"
	"malsched/internal/core"
	"malsched/internal/dag"
	"malsched/internal/engine"
	"malsched/internal/gen"
	"malsched/internal/params"
	"malsched/internal/solver"
	"malsched/internal/trace"
)

func main() {
	seed := flag.Int64("seed", 1, "random seed")
	trials := flag.Int("trials", 5, "instances per configuration")
	exact := flag.Bool("exact", false, "run the brute-force exact study instead")
	phase1 := flag.Bool("phase1", false, "run the phase-1 LP scaling study instead")
	phase1max := flag.Int("phase1max", 2000, "largest task count for -phase1")
	phase1form := flag.String("phase1formulation", "", "pin the -phase1 formulation: lazy, mincut or dense (empty = auto routing)")
	n := flag.Int("n", 24, "tasks per instance (approximate)")
	workers := flag.Int("workers", 0, "solver workers (0 = GOMAXPROCS)")
	flag.Parse()

	if *phase1 {
		form, err := malsched.ParseFormulation(*phase1form)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(2)
		}
		phase1Study(*seed, *phase1max, form)
		return
	}
	pool := engine.New(*workers)
	defer pool.Close()
	if *exact {
		exactStudy(pool, *seed, *trials)
		return
	}
	ratioStudy(pool, *seed, *trials, *n)
}

// phase1Study measures phase 1 across instance sizes (EXPERIMENTS.md E11,
// E16): layered DAGs, mixed task families, machine sizes growing with n.
// Each row reports the warm-workspace solve time, the model size, which
// formulation solved the row (pinned, or the router's pick), and that
// formulation's effort counters — lazy cuts and separation rounds on the
// lazy route, sweep breakpoints and flow augmentations on mincut.
func phase1Study(seed int64, nmax int, formulation malsched.Formulation) {
	fmt.Println("phase-1 LP scaling")
	fmt.Println("n\tm\tedges\tformulation\ttime\tcuts\trounds\tC*")
	ws := allot.NewWorkspace()
	ws.ForceFormulation = formulation
	for _, cfg := range []struct{ n, m int }{
		{100, 16}, {200, 16}, {500, 32}, {1000, 64}, {2000, 64}, {5000, 64}, {10000, 64},
	} {
		if cfg.n > nmax {
			break
		}
		rng := rand.New(rand.NewSource(seed))
		w := 20
		g := gen.Layered(cfg.n/w, w, 3, rng)
		in := gen.Instance(g, gen.FamilyMixed, cfg.m, rng)
		start := time.Now()
		frac, err := allot.SolveLPWith(in, ws)
		el := time.Since(start)
		if err != nil {
			fmt.Printf("%d\t%d\t%d\tERROR: %v\n", cfg.n, cfg.m, g.M(), err)
			continue
		}
		fmt.Printf("%d\t%d\t%d\t%s\t%v\t%d\t%d\t%.4f\n",
			g.N(), cfg.m, g.M(), frac.Formulation, el.Round(time.Millisecond), frac.Cuts, frac.Rounds, frac.C)
	}
}

type dagFamily struct {
	name  string
	build func(n int, rng *rand.Rand) *dag.DAG
}

// trial is one solved instance of the grid: the instance is generated
// sequentially (deterministic for a fixed seed), the solving runs on the
// pool, and the ratios are aggregated in input order afterwards.
type trial struct {
	in *allot.Instance
	// Outputs: the ratios are written by the worker that runs the trial,
	// err by the pool after the batch (solve failure or cancellation).
	ours, ltw, seq, greedy, full float64
	err                          error
}

// run solves the trial's instance with the paper's algorithm and every
// baseline, recording each makespan / LP-lower-bound ratio. Every solve —
// ours and the four baselines — reuses the worker's cross-phase workspace.
func (tr *trial) run(ws *solver.Workspace) error {
	res, err := core.SolveWith(tr.in, core.Options{}, ws)
	if err != nil {
		return err
	}
	lb := res.LowerBound
	tr.ours = res.Makespan / lb
	if r, err := baseline.LTWWith(tr.in, ws); err == nil {
		tr.ltw = r.Makespan / lb
	}
	if r, err := baseline.SequentialWith(tr.in, ws); err == nil {
		tr.seq = r.Makespan / lb
	}
	if r, err := baseline.GreedyCPWith(tr.in, ws); err == nil {
		tr.greedy = r.Makespan / lb
	}
	if r, err := baseline.FullAllotmentWith(tr.in, ws); err == nil {
		tr.full = r.Makespan / lb
	}
	return nil
}

func ratioStudy(pool *engine.Pool, seed int64, trials, n int) {
	rng := rand.New(rand.NewSource(seed))
	dags := []dagFamily{
		{"chain", func(n int, r *rand.Rand) *dag.DAG { return gen.Chain(n) }},
		{"independent", func(n int, r *rand.Rand) *dag.DAG { return gen.Independent(n) }},
		{"forkjoin", func(n int, r *rand.Rand) *dag.DAG { return gen.ForkJoin(n - 2) }},
		{"layered", func(n int, r *rand.Rand) *dag.DAG { return gen.Layered((n+3)/4, 4, 2, r) }},
		{"outtree", func(n int, r *rand.Rand) *dag.DAG { return gen.OutTree(n, r) }},
		{"erdos", func(n int, r *rand.Rand) *dag.DAG { return gen.ErdosDAG(n, 0.25, r) }},
		{"cholesky", func(n int, r *rand.Rand) *dag.DAG { return gen.Cholesky(4) }},
	}
	ms := []int{4, 8, 16}

	// Generate the full grid sequentially so the shared rng stream — and
	// with it every instance — is independent of worker count.
	type config struct {
		df dagFamily
		m  int
		ts []*trial
	}
	var configs []*config
	var all []*trial
	var fns []engine.Func
	for i := range dags {
		for _, m := range ms {
			cfg := &config{df: dags[i], m: m}
			for t := 0; t < trials; t++ {
				g := cfg.df.build(n, rng)
				tr := &trial{in: gen.Instance(g, gen.FamilyMixed, m, rng)}
				cfg.ts = append(cfg.ts, tr)
				all = append(all, tr)
				fns = append(fns, tr.run)
			}
			configs = append(configs, cfg)
		}
	}

	// all[i] and fns[i] were appended together, so the pool's order-
	// preserving errors attach directly to their trials.
	for i, err := range pool.Run(context.Background(), fns) {
		all[i].err = err
	}

	fmt.Println("E8: makespan / LP-lower-bound by algorithm (mean over trials)")
	header := []string{"dag", "m", "ours", "proven", "ltw", "ltw-proven", "seq", "greedy", "full"}
	var rows [][]string
	for _, cfg := range configs {
		var ours, ltw, seq, greedy, full float64
		cnt := 0
		for _, tr := range cfg.ts {
			if tr.err != nil {
				fmt.Fprintf(os.Stderr, "%s m=%d: %v\n", cfg.df.name, cfg.m, tr.err)
				continue
			}
			ours += tr.ours
			ltw += tr.ltw
			seq += tr.seq
			greedy += tr.greedy
			full += tr.full
			cnt++
		}
		if cnt == 0 {
			continue
		}
		f := float64(cnt)
		_, ltwProven := baseline.LTWRatio(cfg.m)
		rows = append(rows, []string{
			cfg.df.name, fmt.Sprint(cfg.m),
			fmt.Sprintf("%.3f", ours/f),
			fmt.Sprintf("%.3f", params.Choose(cfg.m).R),
			fmt.Sprintf("%.3f", ltw/f),
			fmt.Sprintf("%.3f", ltwProven),
			fmt.Sprintf("%.3f", seq/f),
			fmt.Sprintf("%.3f", greedy/f),
			fmt.Sprintf("%.3f", full/f),
		})
	}
	trace.Table(os.Stdout, header, rows)
	fmt.Println("\nNote: columns are upper bounds on the true approximation factor")
	fmt.Println("(the denominator is the LP lower bound, not OPT).")
}

func exactStudy(pool *engine.Pool, seed int64, trials int) {
	rng := rand.New(rand.NewSource(seed))
	fmt.Println("E9: exact ratios versus brute-force OPT on tiny instances")
	header := []string{"n", "m", "mean", "worst", "proven"}

	type exactTrial struct {
		in    *allot.Instance
		ratio float64
		err   error
	}
	configs := []struct{ n, m int }{{3, 2}, {4, 2}, {5, 2}, {4, 3}, {5, 3}, {6, 3}}
	grid := make([][]*exactTrial, len(configs))
	var all []*exactTrial
	var fns []engine.Func
	for c, cfg := range configs {
		for t := 0; t < trials; t++ {
			tr := &exactTrial{in: gen.Instance(gen.ErdosDAG(cfg.n, 0.35, rng), gen.FamilyMixed, cfg.m, rng)}
			grid[c] = append(grid[c], tr)
			all = append(all, tr)
			fns = append(fns, func(ws *solver.Workspace) error {
				opt := bruteforce.Optimal(tr.in)
				res, err := core.SolveWith(tr.in, core.Options{}, ws)
				if err != nil {
					return err
				}
				tr.ratio = res.Makespan / opt
				return nil
			})
		}
	}

	for i, err := range pool.Run(context.Background(), fns) {
		all[i].err = err
	}

	var rows [][]string
	for c, cfg := range configs {
		var sum, worst float64
		cnt := 0
		for _, tr := range grid[c] {
			if tr.err != nil {
				fmt.Fprintln(os.Stderr, tr.err)
				continue
			}
			sum += tr.ratio
			worst = math.Max(worst, tr.ratio)
			cnt++
		}
		if cnt == 0 {
			continue
		}
		rows = append(rows, []string{
			fmt.Sprint(cfg.n), fmt.Sprint(cfg.m),
			fmt.Sprintf("%.4f", sum/float64(cnt)),
			fmt.Sprintf("%.4f", worst),
			fmt.Sprintf("%.4f", params.Choose(cfg.m).R),
		})
	}
	trace.Table(os.Stdout, header, rows)
}
