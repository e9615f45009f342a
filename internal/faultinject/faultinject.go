// Package faultinject provides deterministic, seeded fault injection for
// the chaos test suite. Production code exposes nil func-valued hook
// variables (e.g. lp.FaultLUFactor); tests build an Injector, Set rates
// for the named points they want to misbehave, and install the point's
// Hook into the production variable. A nil hook compiles to a single
// pointer comparison on the production path.
//
// Decisions are deterministic: whether the k-th call at a point fires
// depends only on (seed, point name, k) via a splitmix64 hash, never on
// scheduling. Two runs with the same seed and the same per-goroutine call
// interleaving within a point therefore draw the same total fault count
// over any N calls — which is what lets the chaos suite assert exact
// invariants ("no job lost", "every degraded answer labeled") instead of
// statistical ones.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// The named fault points wired through the repo. The constants exist so
// chaos tests and the catalog in DESIGN.md §9 spell them identically.
const (
	// LUFactorFail makes a sparse-simplex basis factorization report a
	// singular basis (lp.FaultLUFactor).
	LUFactorFail = "lu-factor-fail"
	// CacheShardError makes a cache shard unavailable for one operation;
	// the cache fails open to an uncached compute (server.FaultCacheShard).
	CacheShardError = "cache-shard-error"
	// SlowSolve delays a job on the worker before it starts
	// (engine.FaultSlowSolve).
	SlowSolve = "slow-solve"
	// BGLaneDrop drops a background-lane submission as if the lane were
	// full (engine.FaultBGDrop).
	BGLaneDrop = "bg-lane-drop"
	// FlowSweepStall stalls the parametric min-cut sweep mid-solve, as if
	// an augmentation budget were exhausted (flow.FaultSweep). Surfaces as
	// flow.ErrStalled; the ladder re-solves on the lazy simplex.
	FlowSweepStall = "flow-sweep-stall"
)

// Injector decides, per named point, whether each successive call fires.
// Safe for concurrent use.
type Injector struct {
	seed uint64

	mu     sync.Mutex
	points map[string]*point
}

type point struct {
	threshold uint64        // fire when hash < threshold
	calls     atomic.Uint64 // total decisions taken
	fired     atomic.Int64  // decisions that fired
}

// New returns an injector; all points default to rate 0 (never fire).
func New(seed int64) *Injector {
	return &Injector{seed: uint64(seed), points: make(map[string]*point)}
}

// Set fixes the firing rate of a named point in [0, 1] and returns the
// injector for chaining. Setting a rate resets the point's counters.
func (inj *Injector) Set(name string, rate float64) *Injector {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.points[name] = &point{threshold: uint64(rate * float64(^uint64(0)))}
	return inj
}

// Hook returns the decision function for a named point, in the shape the
// production hook variables expect: each call is one decision. The point
// must have been Set first.
func (inj *Injector) Hook(name string) func() bool {
	p := inj.point(name)
	return func() bool { return inj.decide(name, p) }
}

// Should takes one decision at a named point directly (for hooks whose
// production shape is not func() bool).
func (inj *Injector) Should(name string) bool {
	return inj.decide(name, inj.point(name))
}

// Calls reports how many decisions a point has taken.
func (inj *Injector) Calls(name string) uint64 { return inj.point(name).calls.Load() }

// Fired reports how many decisions at a point fired.
func (inj *Injector) Fired(name string) int64 { return inj.point(name).fired.Load() }

func (inj *Injector) point(name string) *point {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	p, ok := inj.points[name]
	if !ok {
		panic(fmt.Sprintf("faultinject: point %q not configured (call Set first)", name))
	}
	return p
}

func (inj *Injector) decide(name string, p *point) bool {
	k := p.calls.Add(1)
	if p.threshold == 0 {
		return false
	}
	h := inj.seed
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 0x100000001b3
	}
	fire := splitmix64(h^k) < p.threshold
	if fire {
		p.fired.Add(1)
	}
	return fire
}

// splitmix64 is the standard 64-bit finalizing mix: uniform output for
// sequential input, so call index k maps to an independent uniform draw.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
