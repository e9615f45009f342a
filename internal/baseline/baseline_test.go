package baseline

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"malsched/internal/allot"
	"malsched/internal/core"
	"malsched/internal/dag"
	"malsched/internal/gen"
	"malsched/internal/params"
)

// Table 3 of the paper, transcribed: m, mu(m), r(m) for the LTW algorithm.
var paperTable3 = []struct {
	m  int
	mu int
	r  float64
}{
	{2, 1, 4.0000}, {3, 2, 4.0000}, {4, 2, 4.0000}, {5, 3, 4.6667},
	{6, 3, 4.5000}, {7, 3, 4.6667}, {8, 4, 4.8000}, {9, 4, 4.6667},
	{10, 4, 5.0000}, {11, 5, 4.8570}, {12, 5, 4.8000}, {13, 6, 5.0000},
	{14, 6, 4.8889}, {15, 6, 5.0000}, {16, 7, 5.0000}, {17, 7, 4.9091},
	{18, 8, 5.0908}, {19, 8, 5.0000}, {20, 8, 5.0000}, {21, 9, 5.0768},
	{22, 9, 5.0000}, {23, 9, 5.1111}, {24, 10, 5.0667}, {25, 10, 5.0000},
	{26, 10, 5.1250}, {27, 11, 5.0588}, {28, 11, 5.0908}, {29, 12, 5.1111},
	{30, 12, 5.0526}, {31, 13, 5.1578}, {32, 13, 5.1000}, {33, 13, 5.0768},
}

func TestTable3MatchesPaper(t *testing.T) {
	for _, row := range paperTable3 {
		mu, r := LTWRatio(row.m)
		if math.Abs(r-row.r) > 5e-4 { // the paper truncates some entries
			t.Errorf("m=%d: r = %.4f, want %.4f", row.m, r, row.r)
		}
		// The mu column: ties between adjacent mu and an off-by-one mu
		// convention in the source table (e.g. m=26 lists mu=10 but its
		// printed ratio 5.1250 arises only from mu=11 in our formulation)
		// mean we require mu within 1 of the paper and the ratio exact.
		if d := mu - row.mu; d < -1 || d > 1 {
			t.Errorf("m=%d: mu = %d, want %d (+/-1)", row.m, mu, row.mu)
		}
	}
}

func TestLTWAsymptote(t *testing.T) {
	// r -> 3 + sqrt(5) and mu/m -> (3 - sqrt(5))/2 as m grows.
	mu, r := LTWRatio(2_000_000)
	if math.Abs(r-(3+math.Sqrt(5))) > 1e-4 {
		t.Errorf("asymptotic LTW ratio = %v, want %v", r, 3+math.Sqrt(5))
	}
	beta := float64(mu) / 2_000_000
	if math.Abs(beta-(3-math.Sqrt(5))/2) > 1e-4 {
		t.Errorf("asymptotic mu/m = %v, want %v", beta, (3-math.Sqrt(5))/2)
	}
}

// The paper's headline: its new ratio beats LTW for every m (visible
// improvement for all m, Section 4.2).
func TestPaperBeatsLTWEverywhere(t *testing.T) {
	for m := 2; m <= 128; m++ {
		_, ltw := LTWRatio(m)
		ours := params.Choose(m).R
		if ours >= ltw {
			t.Errorf("m=%d: our ratio %.4f not better than LTW %.4f", m, ours, ltw)
		}
	}
}

func TestTable3Generator(t *testing.T) {
	rows := Table3(10)
	if len(rows) != 9 || rows[0].M != 2 || rows[8].M != 10 {
		t.Fatalf("Table3(10) shape wrong: %+v", rows)
	}
}

func TestBaselinesProduceFeasibleSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(10)
		m := 2 + rng.Intn(6)
		in := gen.Instance(gen.ErdosDAG(n, 0.3, rng), gen.FamilyMixed, m, rng)
		type alg struct {
			name string
			run  func() (*core.Result, error)
		}
		algs := []alg{
			{"ltw", func() (*core.Result, error) { return LTW(in) }},
			{"sequential", func() (*core.Result, error) { return Sequential(in) }},
			{"full", func() (*core.Result, error) { return FullAllotment(in) }},
			{"greedycp", func() (*core.Result, error) { return GreedyCP(in) }},
		}
		for _, a := range algs {
			res, err := a.run()
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, a.name, err)
			}
			if err := res.Schedule.Verify(in.G); err != nil {
				t.Errorf("trial %d %s: infeasible: %v", trial, a.name, err)
			}
		}
	}
}

// LTW's realised makespan respects its own proven ratio against the LP
// lower bound.
func TestLTWWithinItsRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 15; trial++ {
		n := 2 + rng.Intn(8)
		m := 2 + rng.Intn(6)
		in := gen.Instance(gen.ErdosDAG(n, 0.3, rng), gen.FamilyMixed, m, rng)
		res, err := LTW(in)
		if err != nil {
			t.Fatal(err)
		}
		_, r := LTWRatio(m)
		if res.Makespan > r*res.LowerBound+1e-6 {
			t.Errorf("trial %d: LTW makespan %v exceeds %v * lower bound %v",
				trial, res.Makespan, r, res.LowerBound)
		}
	}
}

// FullAllotment serialises everything, so its makespan equals the sum of
// the full-width processing times.
func TestFullAllotmentSerialises(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	in := gen.Instance(gen.Independent(5), gen.FamilyPowerLaw, 4, rng)
	res, err := FullAllotment(in)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, task := range in.Tasks {
		want += task.Time(4)
	}
	if math.Abs(res.Makespan-want) > 1e-9 {
		t.Errorf("makespan = %v, want serialised %v", res.Makespan, want)
	}
}

func TestGreedyCPUsesExtraProcessorsOnChains(t *testing.T) {
	// On a pure chain, parallel capacity is useless to siblings, so greedy
	// should widen the chain tasks themselves.
	rng := rand.New(rand.NewSource(44))
	in := gen.Instance(gen.Chain(4), gen.FamilyPowerLaw, 8, rng)
	res, err := GreedyCP(in)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Sequential(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan >= seq.Makespan {
		t.Errorf("greedy (%v) not better than sequential (%v) on a chain of power-law tasks",
			res.Makespan, seq.Makespan)
	}
}

// greedyAllotmentReference is GreedyCP's loop as first written: a fresh
// dag.CriticalPath, with its own topological order and buffers, per
// grant. It is the oracle of greedyAllotment, which computes the order
// once and updates only the granted task's duration.
func greedyAllotmentReference(in *allot.Instance) ([]int, error) {
	n := in.G.N()
	alpha := make([]int, n)
	for j := range alpha {
		alpha[j] = 1
	}
	work := 0.0
	for j := range alpha {
		work += in.Tasks[j].Work(1)
	}
	for iter := 0; iter < n*in.M; iter++ {
		d := make([]float64, n)
		for j := range d {
			d[j] = in.Tasks[j].Time(alpha[j])
		}
		length, path, err := in.G.CriticalPath(d)
		if err != nil {
			return nil, err
		}
		if work/float64(in.M) >= length {
			break
		}
		bestJ, bestGain := -1, 0.0
		for _, j := range path {
			if alpha[j] >= in.M {
				continue
			}
			dt := in.Tasks[j].Time(alpha[j]) - in.Tasks[j].Time(alpha[j]+1)
			dw := in.Tasks[j].Work(alpha[j]+1) - in.Tasks[j].Work(alpha[j])
			gain := dt / (1 + dw)
			if gain > bestGain {
				bestJ, bestGain = j, gain
			}
		}
		if bestJ < 0 {
			break
		}
		work += in.Tasks[bestJ].Work(alpha[bestJ]+1) - in.Tasks[bestJ].Work(alpha[bestJ])
		alpha[bestJ]++
	}
	return alpha, nil
}

// TestGreedyAllotmentMatchesReference: computing the topological order
// once changes no grant, on random DAGs of five generator families, with
// ties among identical tasks included.
func TestGreedyAllotmentMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		m := []int{1, 2, 4, 8, 16, 32}[rng.Intn(6)]
		var g *dag.DAG
		switch trial % 5 {
		case 0:
			g = gen.Chain(n)
		case 1:
			g = gen.Independent(n)
		case 2:
			g = gen.Layered(1+n/4, 4, 3, rng)
		case 3:
			g = gen.OutTree(n, rng)
		default:
			g = gen.ErdosDAG(n, 0.2, rng)
		}
		in := gen.Instance(g, gen.FamilyMixed, m, rng)
		if trial%3 == 0 {
			// Identical tasks tie on gain, so the grant order decides.
			for j := range in.Tasks {
				in.Tasks[j] = in.Tasks[0]
			}
		}
		want, err := greedyAllotmentReference(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := greedyAllotment(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("trial %d (n=%d m=%d): allotment %v, reference %v", trial, g.N(), m, got, want)
		}
	}
}

// The paper's introduction quotes 4.730598 as the best previous ratio for
// general precedence constraints ([13], Jansen-Zhang 2006). The JZ06
// min-max program must reproduce that value asymptotically.
func TestJZ06Asymptote(t *testing.T) {
	_, _, r := JZ06Ratio(20000)
	if math.Abs(r-4.730598) > 2e-3 { // rho-grid resolution limits precision
		t.Errorf("JZ06 asymptotic ratio = %v, want ~4.730598", r)
	}
}

// The ordering of proven ratios claimed by the paper: ours < JZ06 < LTW
// asymptotically, and ours beats JZ06 for every m (stronger assumption).
func TestProvenRatioOrdering(t *testing.T) {
	for _, m := range []int{2, 4, 8, 16, 33, 64} {
		ours := params.Choose(m).R
		_, _, jz := JZ06Ratio(m)
		if ours >= jz+1e-9 {
			t.Errorf("m=%d: ours %.4f not better than JZ06 %.4f", m, ours, jz)
		}
	}
	_, ltw := LTWRatio(20000)
	_, _, jz := JZ06Ratio(20000)
	if !(jz < ltw) {
		t.Errorf("asymptotically JZ06 %.4f should beat LTW %.4f", jz, ltw)
	}
}
