package malsched

import (
	"fmt"

	"malsched/internal/allot"
	"malsched/internal/baseline"
	"malsched/internal/core"
	"malsched/internal/solver"
)

// Algorithm selects which solver a Pool runs for an instance. The zero
// value is AlgoPaper, the two-phase approximation algorithm of the paper;
// the remaining values are the baseline heuristics also exposed as
// top-level Solve* functions. The serving layer (cmd/malschedd) routes
// requests across these per its size/deadline heuristics.
type Algorithm int

const (
	// AlgoPaper is the Jansen–Zhang two-phase algorithm (Solve).
	AlgoPaper Algorithm = iota
	// AlgoLTW is the Lepère–Trystram–Woeginger baseline (SolveLTW).
	AlgoLTW
	// AlgoGreedyCP is the greedy critical-path heuristic (SolveGreedyCP).
	AlgoGreedyCP
	// AlgoSequential runs every task on one processor (SolveSequential).
	AlgoSequential
	// AlgoFullAllotment gives every task all m processors (SolveFullAllotment).
	AlgoFullAllotment
)

// String returns the canonical name: paper, ltw, greedy, seq, full.
func (a Algorithm) String() string {
	switch a {
	case AlgoPaper:
		return "paper"
	case AlgoLTW:
		return "ltw"
	case AlgoGreedyCP:
		return "greedy"
	case AlgoSequential:
		return "seq"
	case AlgoFullAllotment:
		return "full"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ParseAlgorithm maps a name to its Algorithm. It accepts the canonical
// names produced by String plus the aliases "ours" (the cmd/malsched CLI's
// historical name for the paper algorithm) and "sequential".
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "paper", "ours":
		return AlgoPaper, nil
	case "ltw":
		return AlgoLTW, nil
	case "greedy":
		return AlgoGreedyCP, nil
	case "seq", "sequential":
		return AlgoSequential, nil
	case "full":
		return AlgoFullAllotment, nil
	}
	return 0, fmt.Errorf("malsched: unknown algorithm %q (want paper, ltw, greedy, seq or full)", s)
}

// solveAlgoWith dispatches one solve to the selected algorithm, threading
// the reusable workspace through whichever path is taken. It is the shared
// implementation behind the top-level Solve* functions and Pool.SolveAlgo.
// Every algorithm ends in core's pipeline tail, so every schedule is
// verified against the instance's DAG and has a finite makespan.
func solveAlgoWith(in *Instance, ws *solver.Workspace, algo Algorithm, opts []Option) (*Result, error) {
	var f func(*allot.Instance, *solver.Workspace) (*core.Result, error)
	switch algo {
	case AlgoPaper:
		return solveWith(in, ws, opts)
	case AlgoLTW:
		f = baseline.LTWWith
	case AlgoSequential:
		f = baseline.SequentialWith
	case AlgoGreedyCP:
		f = baseline.GreedyCPWith
	case AlgoFullAllotment:
		f = baseline.FullAllotmentWith
	default:
		return nil, fmt.Errorf("malsched: unknown algorithm %v", algo)
	}
	ai, err := in.internal()
	if err != nil {
		return nil, err
	}
	res, err := f(ai, ws)
	if err != nil {
		return nil, err
	}
	out := result(res)
	if algo == AlgoLTW {
		_, out.ProvenRatio = baseline.LTWRatio(in.M)
	}
	return out, nil
}
