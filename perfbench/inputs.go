package main

import (
	"encoding/json"
	"math"
	"math/rand"

	"malsched"
	"malsched/internal/dag"
	"malsched/internal/gen"
	"malsched/internal/server"
)

// Every input is a pure function of (seed, stream, index), so any item of
// a workload can be built on demand, in any order, without materialising
// the run's input up front. The streams keep unrelated draws apart: the
// hit keys of one seed are not the bases or batch instances of that seed.
const (
	streamHitKeys = iota + 1
	streamHitPick
	streamMiss
	streamMissOrder
	streamMissBases
	streamBatch
	streamBatchWarm
	streamArrivals
)

// mix hashes (seed, stream, i) with splitmix64 finalisers.
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

// shape is a layered DAG of depth×width tasks with 1..maxIn predecessors
// per task, mixed task families, on m machines.
type shape struct{ depth, width, maxIn, m int }

var (
	// shapeServe is the serving-sized instance of E12 and BenchmarkServe
	// (n=96, m=16): phase 1 runs the lazy simplex.
	shapeServe = shape{12, 8, 2, 16}
	// shapeLarge (n=500, m=32) lands in the min-cut window of phase 1 and
	// serialises to ~300 KB, so body decoding is a visible share.
	shapeLarge = shape{25, 20, 3, 32}
	// shapeBatch is the layered_n2000_m64 scenario of BenchmarkPhase1LP.
	shapeBatch = shape{100, 20, 3, 64}
)

func (s shape) instance(rng *rand.Rand) *malsched.Instance {
	return fromDAG(gen.Layered(s.depth, s.width, s.maxIn, rng), s.m, rng)
}

func fromDAG(g *dag.DAG, m int, rng *rand.Rand) *malsched.Instance {
	in := &malsched.Instance{M: m, Tasks: gen.Tasks(gen.FamilyMixed, g.N(), m, rng)}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Succs(v) {
			in.Edges = append(in.Edges, [2]int{v, w})
		}
	}
	return in
}

// lb0 is the benchmark's own lower bound on the optimal makespan: the
// longest path with every task at its fastest time p_j(m), or the least
// total work Σ_j p_j(1) spread over m machines. It needs no solver, so it
// checks the solver's certified bound from outside.
func lb0(in *malsched.Instance) float64 {
	n := len(in.Tasks)
	succ := make([][]int, n)
	indeg := make([]int, n)
	for _, e := range in.Edges {
		succ[e[0]] = append(succ[e[0]], e[1])
		indeg[e[1]]++
	}
	finish := make([]float64, n)
	queue := make([]int, 0, n)
	work := 0.0
	for j, t := range in.Tasks {
		work += t.Times[0]
		if indeg[j] == 0 {
			queue = append(queue, j)
		}
	}
	path := 0.0
	for k := 0; k < len(queue); k++ {
		j := queue[k]
		times := in.Tasks[j].Times
		finish[j] += times[len(times)-1]
		path = math.Max(path, finish[j])
		for _, s := range succ[j] {
			finish[s] = math.Max(finish[s], finish[j])
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	return math.Max(path, work/float64(in.M))
}

// request is one generated request with what its answer is checked
// against.
type request struct {
	index int
	class reqClass
	body  []byte
	lb0   float64
	// key is the serve_hit key the request asks for (-1 otherwise).
	key int
	// inst is the instance the request resolves to; serve_miss keeps it
	// only for the traced run, which replays the layers on it.
	inst *malsched.Instance
	base int // delta base index (-1 otherwise)
}

// reqClass is a serve_miss request class.
type reqClass int

const (
	classHit reqClass = iota
	classFresh96
	classDelta
	classFresh500
)

func (c reqClass) String() string {
	return [...]string{"hit", "fresh96", "delta", "fresh500"}[c]
}

// missClass returns the class of request i of serve_miss. Every aligned
// block of four requests holds the 2:1:1 mix in a seeded order, so any
// window of the stream carries the same mix.
func missClass(seed int64, i int) reqClass {
	perm := itemRNG(seed, streamMissOrder, i/4).Perm(4)
	return [4]reqClass{classFresh96, classFresh96, classDelta, classFresh500}[perm[i%4]]
}

// deltaBases is the number of serve_miss delta bases primed in set-up.
const deltaBases = 8

// deltaEdits is the number of task edits per delta request (within the
// server's warm budget of 8).
const deltaEdits = 4

func missBase(seed int64, b int) *malsched.Instance {
	return shapeServe.instance(itemRNG(seed, streamMissBases, b))
}

func hitKey(seed int64, k int) *malsched.Instance {
	return shapeServe.instance(itemRNG(seed, streamHitKeys, k))
}

func batchInstance(seed int64, stream, i int) *malsched.Instance {
	return shapeBatch.instance(itemRNG(seed, stream, i))
}

// missRequest builds request i of serve_miss. bases are the primed delta
// bases and baseFP their fingerprints.
func missRequest(seed int64, i int, bases []*malsched.Instance, baseFP []string, keep bool) (*request, error) {
	rng := itemRNG(seed, streamMiss, i)
	r := &request{index: i, class: missClass(seed, i), key: -1, base: -1}
	var body any
	var in *malsched.Instance
	switch r.class {
	case classFresh96:
		in = shapeServe.instance(rng)
		body = server.SolveRequestV2{Instance: in}
	case classFresh500:
		in = shapeLarge.instance(rng)
		body = server.SolveRequestV2{Instance: in}
	case classDelta:
		r.base = rng.Intn(len(bases))
		base := bases[r.base]
		in = &malsched.Instance{M: base.M, Edges: base.Edges, Tasks: append([]malsched.Task(nil), base.Tasks...)}
		fresh := gen.Tasks(gen.FamilyMixed, deltaEdits, base.M, rng)
		edits := make([]server.TaskEdit, deltaEdits)
		for k, j := range rng.Perm(len(base.Tasks))[:deltaEdits] {
			edits[k] = server.TaskEdit{Task: j, Times: fresh[k].Times}
			in.Tasks[j] = malsched.NewTask(base.Tasks[j].Name, fresh[k].Times)
		}
		body = server.SolveRequestV2{Base: baseFP[r.base], Edits: edits}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	r.body, r.lb0 = raw, lb0(in)
	if keep {
		r.inst = in
	}
	return r, nil
}

// hitPick is the key requested by request i of serve_hit.
func hitPick(seed int64, i, keys int) int {
	return int(mix(seed, streamHitPick, i) % uint64(keys))
}

// arrivals returns the due times (seconds from the start of the open
// loop) of a Poisson stream at rate per second, up to span seconds.
func arrivals(seed int64, rate, span float64) []float64 {
	var out []float64
	for next := poisson(seed, rate); ; {
		t := next()
		if t >= span {
			return out
		}
		out = append(out, t)
	}
}

// firstArrivals returns the first n due times of the same stream.
func firstArrivals(seed int64, rate float64, n int) []float64 {
	out := make([]float64, n)
	next := poisson(seed, rate)
	for k := range out {
		out[k] = next()
	}
	return out
}

func poisson(seed int64, rate float64) func() float64 {
	rng := itemRNG(seed, streamArrivals, 0)
	t := 0.0
	return func() float64 {
		t += rng.ExpFloat64() / rate
		return t
	}
}
