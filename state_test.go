package malsched

import (
	"math"
	"math/rand"
	"testing"

	"malsched/internal/gen"
)

// mix is the serving benchmark's splitmix64 hash of (seed, stream,
// index), from which every benchmark input is drawn.
func mix(seed int64, stream, i int) uint64 {
	x := uint64(seed)
	for _, v := range [2]uint64{uint64(stream), uint64(i)} {
		x += 0x9E3779B97F4A7C15 + v
		x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
		x = (x ^ x>>27) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	return x
}

func itemRNG(seed int64, stream, i int) *rand.Rand {
	return rand.New(rand.NewSource(int64(mix(seed, stream, i) >> 1)))
}

// benchDelta rebuilds delta request i of the serving benchmark's
// serve_miss workload: one of 8 layered n=96/m=16 bases (stream 5) with
// 4 of its tasks redrawn (stream 3).
func benchDelta(seed int64, i int) (base, edited *Instance) {
	layered := func(rng *rand.Rand) *Instance {
		g := gen.Layered(12, 8, 2, rng)
		in := &Instance{M: 16, Tasks: gen.Tasks(gen.FamilyMixed, g.N(), 16, rng)}
		for v := 0; v < g.N(); v++ {
			for _, w := range g.Succs(v) {
				in.Edges = append(in.Edges, [2]int{v, w})
			}
		}
		return in
	}
	rng := itemRNG(seed, 3, i)
	base = layered(itemRNG(seed, 5, rng.Intn(8)))
	edited = &Instance{M: base.M, Edges: base.Edges, Tasks: append([]Task(nil), base.Tasks...)}
	fresh := gen.Tasks(gen.FamilyMixed, 4, base.M, rng)
	for k, j := range rng.Perm(len(base.Tasks))[:4] {
		edited.Tasks[j] = NewTask(base.Tasks[j].Name, fresh[k].Times)
	}
	return base, edited
}

// warmDelta solves base with capture, then edited warm from the base's
// state, the way the server answers a delta request.
func warmDelta(t *testing.T, base, edited *Instance) *Result {
	t.Helper()
	b, err := Solve(base, WithCapture())
	if err != nil {
		t.Fatalf("base: %v", err)
	}
	if b.State == nil {
		t.Fatal("base solve captured no state")
	}
	res, err := Solve(edited, WithCapture(), WithWarmStart(b.State))
	if err != nil {
		t.Fatalf("warm delta: %v", err)
	}
	return res
}

// crashBound is the bound LP (9) starts from: the longest path with every
// task at its fastest time, or the least total work spread over m.
func crashBound(t *testing.T, in *Instance) float64 {
	fastest := make([]float64, len(in.Tasks))
	work := 0.0
	for j, task := range in.Tasks {
		fastest[j] = task.Times[len(task.Times)-1]
		work += task.Times[0]
	}
	g, err := in.graph()
	if err != nil {
		t.Fatal(err)
	}
	path, _, err := g.CriticalPath(fastest)
	if err != nil {
		t.Fatal(err)
	}
	return math.Max(path, work/float64(in.M))
}

// TestWarmDeltaSingularRetriesCold: on serving benchmark seed 609,
// request 533, the transplanted basis goes numerically singular. The
// warm solve must fall back to a cold solve of the same LP instead of
// failing.
func TestWarmDeltaSingularRetriesCold(t *testing.T) {
	base, edited := benchDelta(609, 533)
	res := warmDelta(t, base, edited)
	cold, err := Solve(edited)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != cold.Makespan || res.Formulation != FormulationLazy {
		t.Errorf("warm delta makespan %v (%s), cold %v", res.Makespan, res.Formulation, cold.Makespan)
	}
	if res.State == nil {
		t.Error("the cold retry captured no state")
	}
}

// TestWarmDeltaLowerBoundAboveCrashBound: on serving benchmark seed 504,
// request 788, the warm solve's C* = L* came out 1.4e-9 relative below
// the crash bound LP (9) imposes on both. The certified lower bound may
// never undercut it.
func TestWarmDeltaLowerBoundAboveCrashBound(t *testing.T) {
	base, edited := benchDelta(504, 788)
	res := warmDelta(t, base, edited)
	if lb := crashBound(t, edited); res.LowerBound < lb {
		t.Errorf("lower bound %.13g below the crash bound %.13g", res.LowerBound, lb)
	}
	if res.Makespan < res.LowerBound {
		t.Errorf("makespan %v below the lower bound %v", res.Makespan, res.LowerBound)
	}
}

// TestLazyPinSurvivesWarmFallback: the warm delta falls back to a cold
// solve when its snapshot cannot be replayed, here because task 0 of the
// serving benchmark's n=500/m=32 shape is edited to constant times, which
// collapses its frontier to a point (no supporting line can stand in for
// its logged cuts). The shape auto-routes to the min-cut sweep, so a
// fallback that dropped the lazy pin would answer from the sweep and
// capture no state.
func TestLazyPinSurvivesWarmFallback(t *testing.T) {
	base := layeredInstance(500, 32, 7)
	if auto, err := Solve(base); err != nil || auto.Formulation != FormulationMincut {
		t.Fatalf("unpinned base: formulation %q, err %v; the test needs a shape the router sends to min-cut", auto.Formulation, err)
	}
	b, err := Solve(base, WithFormulation(FormulationLazy), WithCapture())
	if err != nil || b.State == nil {
		t.Fatalf("lazy-pinned base: state %v, err %v", b.State, err)
	}
	edited := &Instance{M: base.M, Edges: base.Edges, Tasks: append([]Task(nil), base.Tasks...)}
	flat := make([]float64, base.M)
	for i := range flat {
		flat[i] = base.Tasks[0].Times[0]
	}
	edited.Tasks[0] = NewTask(base.Tasks[0].Name, flat)

	res, err := Solve(edited, WithFormulation(FormulationLazy), WithCapture(), WithWarmStart(b.State))
	if err != nil {
		t.Fatal(err)
	}
	if res.Formulation != FormulationLazy || res.State == nil {
		t.Errorf("lazy-pinned warm delta ran on %q with state %v, want lazy with a state", res.Formulation, res.State)
	}
}
