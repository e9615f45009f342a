// Package malsched schedules malleable tasks with precedence constraints on
// m identical processors, implementing the approximation algorithm of
//
//	K. Jansen, H. Zhang: "Scheduling malleable tasks with precedence
//	constraints", SPAA 2005 / J. Comput. Syst. Sci. 78 (2012) 245-259,
//
// with proven approximation ratio 100/63 + 100(sqrt(6469)+13)/5481
// ~= 3.291919 under the paper's two model assumptions: each task's
// processing time p(l) is non-increasing in the number l of processors
// allotted, and its speedup p(1)/p(l) is concave in l.
//
// A minimal use:
//
//	inst := &malsched.Instance{
//	    M: 8,
//	    Tasks: []malsched.Task{
//	        malsched.PowerLawTask("prep", 10, 0.8, 8),
//	        malsched.PowerLawTask("solve", 40, 0.9, 8),
//	    },
//	    Edges: [][2]int{{0, 1}},
//	}
//	res, err := malsched.Solve(inst)
//	// res.Makespan, res.Schedule.Items[j].Start/.Alloc, res.Guarantee ...
//
// The two-phase algorithm first solves a linear program (the allotment
// problem) with a from-scratch simplex solver and rounds its fractional
// solution, then runs a capacity-aware variant of list scheduling. See
// DESIGN.md in the repository for the architecture and EXPERIMENTS.md for
// the reproduction of the paper's tables and figures.
package malsched

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"malsched/internal/allot"
	"malsched/internal/bruteforce"
	"malsched/internal/core"
	"malsched/internal/dag"
	"malsched/internal/malleable"
	"malsched/internal/params"
	"malsched/internal/prep"
	"malsched/internal/schedule"
	"malsched/internal/sim"
	"malsched/internal/solver"
	"malsched/internal/trace"
)

// Task is a malleable task: Times[l-1] is its processing time on l
// processors. Tasks must satisfy the model assumptions (validated by
// Solve): non-increasing Times and concave speedup.
type Task = malleable.Task

// Schedule is a feasible non-preemptive schedule on M processors.
type Schedule = schedule.Schedule

// Item is one scheduled task within a Schedule.
type Item = schedule.Item

// Instance is a scheduling problem: n malleable tasks, precedence arcs
// between them (Edges[k] = {i, j} means task i must finish before task j
// starts), and a machine of M identical processors.
type Instance struct {
	M     int      `json:"m"`
	Tasks []Task   `json:"tasks"`
	Edges [][2]int `json:"edges"`
}

// NewTask builds a task from a processing-time vector (index 0 = one
// processor).
func NewTask(name string, times []float64) Task { return malleable.NewTask(name, times) }

// PowerLawTask returns p(l) = p1 * l^(-d), the paper's running example
// (0 < d <= 1).
func PowerLawTask(name string, p1, d float64, m int) Task { return malleable.PowerLaw(name, p1, d, m) }

// AmdahlTask returns p(l) = p1 * (f + (1-f)/l) for sequential fraction f.
func AmdahlTask(name string, p1, f float64, m int) Task { return malleable.Amdahl(name, p1, f, m) }

// CappedLinearTask returns perfect speedup up to k processors.
func CappedLinearTask(name string, p1 float64, k, m int) Task {
	return malleable.CappedLinear(name, p1, k, m)
}

// RandomTask draws a random task satisfying the model assumptions.
func RandomTask(name string, p1 float64, m int, rng *rand.Rand) Task {
	return malleable.RandomConcave(name, p1, m, rng)
}

// graph converts the edge list into the internal DAG. The list is
// canonicalised first (prep.DedupEdges: sorted, duplicates dropped), the
// same canonical form Fingerprint hashes, so instances that differ only
// in edge order or duplicates build the same DAG, successor order
// included, and get the same answer. It does not make the build cheaper:
// AddEdge still scans the successor list on every insert, O(E·deg) in
// all.
func (in *Instance) graph() (*dag.DAG, error) {
	g := dag.New(len(in.Tasks))
	for _, e := range prep.DedupEdges(in.Edges) {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func (in *Instance) internal() (*allot.Instance, error) {
	g, err := in.graph()
	if err != nil {
		return nil, err
	}
	ai := &allot.Instance{G: g, Tasks: in.Tasks, M: in.M}
	if err := ai.Validate(); err != nil {
		return nil, err
	}
	return ai, nil
}

// Validate checks the instance: machine size, edge indices, acyclicity, and
// the two model assumptions on every task.
func (in *Instance) Validate() error {
	_, err := in.internal()
	return err
}

// Result is the outcome of a solver run.
type Result struct {
	// Schedule is the feasible schedule produced.
	Schedule *Schedule
	// Makespan is the schedule length Cmax.
	Makespan float64
	// LowerBound is a certified lower bound on the optimal makespan
	// (max{L*, W*/m} from the LP relaxation; 0 when the algorithm does not
	// solve the LP).
	LowerBound float64
	// Guarantee = Makespan / LowerBound when LowerBound > 0: an upper bound
	// on the realised approximation factor.
	Guarantee float64
	// Alloc[j] is the number of processors task j runs on.
	Alloc []int
	// Mu, Rho, ProvenRatio are the algorithm parameters used and the
	// Theorem 4.1 ratio they certify (0 for baseline heuristics without a
	// guarantee).
	Mu          int
	Rho         float64
	ProvenRatio float64
	// Formulation records which phase-1 LP formulation actually solved
	// the allotment problem: paper and LTW report it, and the
	// fixed-allotment heuristics (greedy, seq, full), which skip the LP,
	// report "".
	Formulation Formulation
	// LPCuts and LPRounds are phase-1 effort diagnostics, with
	// formulation-dependent meaning: the lazy route reports cuts added
	// and separation rounds, the min-cut sweep reports parameter
	// breakpoints and flow augmentations. Both 0 for greedy, seq and
	// full.
	LPCuts   int
	LPRounds int
	// State is the warm-start handle captured when the solve ran with
	// WithCapture (nil otherwise, and nil when capture was impossible).
	State *SolverState
}

// solveConfig collects what the options configure: the core algorithm
// options plus the warm start, which the public layer checks against the
// instance's structure fingerprint before core sees it.
type solveConfig struct {
	core core.Options
	warm *SolverState
}

// Formulation names a phase-1 LP formulation: the lazy-cut sparse
// simplex or the parametric min-cut sweep. The empty value lets the
// router pick by instance shape.
type Formulation = allot.Formulation

// The phase-1 formulations a solve can report or be pinned to.
const (
	FormulationLazy   = allot.FormulationLazy
	FormulationMincut = allot.FormulationMincut
)

// ParseFormulation validates a formulation name from an external surface
// (API request, CLI flag). The empty string parses to the auto route.
func ParseFormulation(s string) (Formulation, error) {
	switch f := Formulation(s); f {
	case "", FormulationLazy, FormulationMincut:
		return f, nil
	}
	return "", fmt.Errorf("malsched: unknown formulation %q (valid: %s, %s)",
		s, FormulationLazy, FormulationMincut)
}

// Option configures Solve.
type Option func(*solveConfig)

// WithRho overrides the rounding parameter rho in [0, 1].
func WithRho(rho float64) Option {
	return func(o *solveConfig) { o.core.Rho, o.core.RhoSet = rho, true }
}

// WithMu overrides the allotment threshold mu in [1, m].
func WithMu(mu int) Option {
	return func(o *solveConfig) { o.core.Mu = mu }
}

// WithFormulation pins the phase-1 LP formulation instead of letting the
// router pick by instance shape. Under a mincut pin, as on the min-cut
// route, WithCapture returns no state and WithWarmStart is ignored
// (snapshots only exist on the lazy route). The two engines share no
// numerics — the sweep factors no basis — so the serving layer re-solves
// on the other one when a solve fails. Only the paper algorithm reads
// the pin; LTW solves the same LP on the routed formulation.
func WithFormulation(f Formulation) Option {
	return func(o *solveConfig) { o.core.Formulation = f }
}

// Solve runs the paper's two-phase approximation algorithm with the
// parameter choices of Theorem 4.1 (overridable through options). For
// solving many instances, or many requests concurrently, prefer a Pool: it
// amortises solver allocations across solves and saturates all cores.
func Solve(in *Instance, opts ...Option) (*Result, error) {
	return solveWith(in, nil, opts)
}

// solveWith is the shared implementation behind Solve and Pool: it runs the
// two-phase algorithm with an optional reusable cross-phase workspace.
func solveWith(in *Instance, ws *solver.Workspace, opts []Option) (*Result, error) {
	ai, err := in.internal()
	if err != nil {
		return nil, err
	}
	var o solveConfig
	for _, f := range opts {
		f(&o)
	}
	if o.warm != nil && o.warm.snap != nil && o.warm.structFP == in.StructureFingerprint() {
		o.core.WarmLP = o.warm.snap
	}
	res, err := core.SolveWith(ai, o.core, ws)
	if err != nil {
		return nil, err
	}
	out := result(res)
	if res.LPSnapshot != nil {
		out.State = &SolverState{snap: res.LPSnapshot, structFP: in.StructureFingerprint()}
	}
	return out, nil
}

// result converts core's result for every algorithm; the baselines'
// fixed-allotment results leave the LP fields at zero.
func result(res *core.Result) *Result {
	out := &Result{
		Schedule:    res.Schedule,
		Makespan:    res.Makespan,
		LowerBound:  res.LowerBound,
		Guarantee:   res.Guarantee,
		Alloc:       res.Alpha,
		Mu:          res.Params.Mu,
		Rho:         res.Params.Rho,
		ProvenRatio: res.Params.R,
	}
	if res.Fractional != nil {
		out.Formulation = res.Fractional.Formulation
		out.LPCuts = res.Fractional.Cuts
		out.LPRounds = res.Fractional.Rounds
	}
	return out
}

// SolveLTW runs the Lepère–Trystram–Woeginger baseline (the comparison
// algorithm of the paper's Table 3, ratio asymptotically 3+sqrt(5)).
func SolveLTW(in *Instance) (*Result, error) {
	return solveAlgoWith(in, nil, AlgoLTW, nil)
}

// SolveSequential schedules every task on one processor (no malleability).
func SolveSequential(in *Instance) (*Result, error) {
	return solveAlgoWith(in, nil, AlgoSequential, nil)
}

// SolveGreedyCP runs the greedy critical-path heuristic baseline.
func SolveGreedyCP(in *Instance) (*Result, error) {
	return solveAlgoWith(in, nil, AlgoGreedyCP, nil)
}

// SolveFullAllotment gives every task all m processors (serialising).
func SolveFullAllotment(in *Instance) (*Result, error) {
	return solveAlgoWith(in, nil, AlgoFullAllotment, nil)
}

// Optimal computes the exact optimal makespan by exhaustive search. Only
// feasible for tiny instances (n <= 8 tasks, m <= 8 processors); it panics
// beyond those limits.
func Optimal(in *Instance) (float64, error) {
	ai, err := in.internal()
	if err != nil {
		return 0, err
	}
	return bruteforce.Optimal(ai), nil
}

// Verify checks that a result's schedule is feasible for the instance.
func Verify(in *Instance, res *Result) error {
	g, err := in.graph()
	if err != nil {
		return err
	}
	if err := res.Schedule.Verify(g); err != nil {
		return err
	}
	// Replay on the simulated machine binds concrete processor IDs.
	_, err = sim.Replay(res.Schedule)
	return err
}

// Params returns the paper's parameter choice and proven approximation
// ratio for a machine of m processors (Table 2 of the paper).
func Params(m int) (mu int, rho, ratio float64) {
	c := params.Choose(m)
	return c.Mu, c.Rho, c.R
}

// Gantt renders an ASCII Gantt chart of the schedule to w.
func Gantt(w io.Writer, s *Schedule, width int) error { return trace.Gantt(w, s, width) }

// WriteJSON serialises an instance.
func WriteJSON(w io.Writer, in *Instance) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(in)
}

// ReadJSON deserialises an instance and validates it.
func ReadJSON(r io.Reader) (*Instance, error) {
	var in Instance
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("malsched: decoding instance: %w", err)
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return &in, nil
}
