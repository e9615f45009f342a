package malsched

import "malsched/internal/allot"

// SolverState is an opaque warm-start handle: the phase-1 LP basis and
// lazy-cut replay log captured after a paper-algorithm solve, tied to the
// structure fingerprint of the instance it came from. A state captured on
// one instance warm-starts the solve of any instance with the same
// StructureFingerprint — same DAG shape, machine size and per-task vector
// lengths, arbitrary processing-time edits — which is the serving layer's
// delta path: an edited instance re-solves in a handful of simplex pivots
// instead of a cold solve.
//
// A SolverState is immutable and safe to share across goroutines; the
// solver only reads it. Passing a state whose structure does not match the
// instance being solved is safe: the solve silently degrades to a cold
// solve, and the result is an exact optimum either way.
type SolverState struct {
	snap     *allot.LPSnapshot
	structFP string
}

// StructureFingerprint returns the structure fingerprint of the instance
// the state was captured from. Warm starts are only effective on instances
// with the same value (Instance.StructureFingerprint).
func (st *SolverState) StructureFingerprint() string {
	if st == nil {
		return ""
	}
	return st.structFP
}

// WithCapture asks the solve to export a SolverState in Result.State.
// Capture is best-effort: only the lazy-cut formulation leaves a
// transplantable basis, so a solve the router sends to the min-cut sweep
// returns no state. Pin WithFormulation(FormulationLazy) to make capture
// unconditional.
func WithCapture() Option {
	return func(o *solveConfig) { o.capture = true }
}

// WithWarmStart seeds the phase-1 LP from a previously captured state.
// A nil state, or one captured from a structurally different instance, is
// ignored (the solve runs cold). Only the paper algorithm consumes it.
func WithWarmStart(st *SolverState) Option {
	return func(o *solveConfig) { o.warm = st }
}

// EditDistance returns the number of task positions whose processing-time
// vectors differ between in and other under the fingerprint quantization
// (12 significant digits — the same equivalence Fingerprint uses), or -1
// when the two instances do not even share a task count. It is the edit
// metric of the serving layer's delta path: a request within the edit
// budget of a cached base re-solves warm from the base's SolverState.
func (in *Instance) EditDistance(other *Instance) int {
	if len(in.Tasks) != len(other.Tasks) {
		return -1
	}
	d := 0
	for j := range in.Tasks {
		if !quantizedTimesEqual(in.Tasks[j].Times, other.Tasks[j].Times) {
			d++
		}
	}
	return d
}

// quantizedTimesEqual reports whether two processing-time vectors are
// equal after fingerprint quantization.
//
//malsched:noalloc
func quantizedTimesEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if quantize(a[i]) != quantize(b[i]) {
			return false
		}
	}
	return true
}
