package malsched

import (
	"context"
	"errors"

	"malsched/internal/engine"
	"malsched/internal/solver"
)

// ErrPoolClosed is reported for solves submitted to a closed Pool.
var ErrPoolClosed = engine.ErrClosed

var errNilInstance = errors.New("malsched: nil instance")

// Pool solves instances concurrently on a fixed set of worker goroutines.
// Each worker owns a reusable cross-phase solver workspace (preallocated
// simplex tableau, basis and pricing buffers for phase 1; capacity profile
// and ready queue for phase 2), so a warm pool does near-zero allocation
// per solve and saturates every core on batch workloads while producing
// exactly the same results as Solve.
//
// A Pool is safe for concurrent use by multiple goroutines and holds its
// workers until Close.
type Pool struct {
	eng  *engine.Pool
	opts []Option
}

// NewPool starts a pool with the given number of workers (workers <= 0
// means GOMAXPROCS). The options are applied to every solve the pool runs,
// before any per-call options. Call Close to release the workers.
func NewPool(workers int, opts ...Option) *Pool {
	return &Pool{eng: engine.New(workers), opts: opts}
}

// Workers returns the number of worker goroutines.
func (p *Pool) Workers() int { return p.eng.Workers() }

// Close shuts down the pool's workers. Jobs already running complete;
// solves submitted afterwards fail with ErrPoolClosed. Close is idempotent.
func (p *Pool) Close() { p.eng.Close() }

// combined merges the pool-level options with per-call overrides. The
// result is read-only: with no overrides it is p.opts itself, which
// concurrent solves share.
func (p *Pool) combined(opts []Option) []Option {
	if len(opts) == 0 {
		return p.opts
	}
	all := make([]Option, 0, len(p.opts)+len(opts))
	all = append(all, p.opts...)
	return append(all, opts...)
}

// Solve solves one instance on the pool, blocking until the result is
// ready. Concurrent callers are served in parallel by different workers.
// Per-call options override the pool's options.
func (p *Pool) Solve(ctx context.Context, in *Instance, opts ...Option) (*Result, error) {
	return p.SolveAlgo(ctx, AlgoPaper, in, opts...)
}

// SolveAlgo solves one instance with the selected algorithm on the pool,
// blocking until the result is ready. AlgoPaper is exactly Pool.Solve; the
// baseline algorithms reuse the worker's workspace the same way, so a mixed
// algorithm stream (as produced by the serving layer's adaptive router)
// still runs allocation-free once warm. Per-call options override the
// pool's options; the baselines ignore them (LTW runs at its own rho and
// mu, on the routed formulation).
func (p *Pool) SolveAlgo(ctx context.Context, algo Algorithm, in *Instance, opts ...Option) (*Result, error) {
	if in == nil {
		return nil, errNilInstance
	}
	var res *Result
	err := p.eng.RunOne(ctx, func(ws *solver.Workspace) error {
		r, err := solveAlgoWith(in, ws, algo, p.combined(opts))
		res = r
		return err
	})
	return res, err
}

// TrySolveBackground submits a fire-and-forget solve on the pool's
// background lane: it runs on a worker only when no foreground solve is
// waiting, so refinement work never delays interactive requests. The
// outcome is delivered to done (from the worker goroutine; done must be
// safe for that). It reports false — and does not run anything — when the
// lane is full or the pool is closed: background work is best-effort and
// load-shedding is the caller's signal to count.
func (p *Pool) TrySolveBackground(algo Algorithm, in *Instance, done func(*Result, error), opts ...Option) bool {
	if in == nil || done == nil {
		return false
	}
	all := p.combined(opts)
	return p.eng.TryBackground(func(ws *solver.Workspace) error {
		done(solveAlgoWith(in, ws, algo, all))
		return nil
	})
}

// BatchResult is the outcome of one instance of a batch: exactly one of
// Result and Err is set.
type BatchResult struct {
	Result *Result
	Err    error
}

// SolveBatch fans the instances out across the pool's workers and returns
// one outcome per instance, order-preserving: out[i] belongs to ins[i]
// regardless of scheduling, so results are deterministic for any worker
// count. Errors are isolated per instance — an invalid or failing instance
// does not affect its siblings. When ctx is cancelled, instances not yet
// started fail with the context's error, and solves already running abort
// at their next cancellation checkpoint (also with the context's error)
// unless they finish first; SolveBatch always waits for the solves it
// started.
func (p *Pool) SolveBatch(ctx context.Context, ins []*Instance, opts ...Option) []BatchResult {
	out := make([]BatchResult, len(ins))
	all := p.combined(opts)
	fns := make([]engine.Func, len(ins))
	for i := range ins {
		fns[i] = func(ws *solver.Workspace) error {
			if ins[i] == nil {
				return errNilInstance
			}
			r, err := solveWith(ins[i], ws, all)
			out[i].Result = r
			return err
		}
	}
	for i, err := range p.eng.Run(ctx, fns) {
		out[i].Err = err
	}
	return out
}
