package malsched

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func exampleInstance() *Instance {
	return &Instance{
		M: 4,
		Tasks: []Task{
			PowerLawTask("a", 8, 0.8, 4),
			PowerLawTask("b", 12, 0.6, 4),
			AmdahlTask("c", 10, 0.2, 4),
			CappedLinearTask("d", 6, 2, 4),
		},
		Edges: [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}},
	}
}

func TestSolveEndToEnd(t *testing.T) {
	in := exampleInstance()
	res, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(in, res); err != nil {
		t.Fatal(err)
	}
	if res.Guarantee > res.ProvenRatio+1e-9 {
		t.Errorf("guarantee %.4f exceeds proven ratio %.4f", res.Guarantee, res.ProvenRatio)
	}
	if res.Makespan <= 0 || res.LowerBound <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	mu, rho, ratio := Params(4)
	if res.Mu != mu || res.Rho != rho || res.ProvenRatio != ratio {
		t.Errorf("parameters differ from Params(4): %+v vs (%d,%v,%v)", res, mu, rho, ratio)
	}
}

func TestSolveOptions(t *testing.T) {
	in := exampleInstance()
	res, err := Solve(in, WithRho(0.5), WithMu(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rho != 0.5 || res.Mu != 2 {
		t.Errorf("options ignored: rho=%v mu=%d", res.Rho, res.Mu)
	}
	for j, l := range res.Alloc {
		if l > 2 {
			t.Errorf("task %d allotted %d > mu", j, l)
		}
	}
}

func TestValidateRejectsBadInstances(t *testing.T) {
	bad := &Instance{M: 2, Tasks: []Task{NewTask("x", []float64{1, 2})}}
	if bad.Validate() == nil {
		t.Error("increasing processing time accepted")
	}
	cyc := exampleInstance()
	cyc.Edges = append(cyc.Edges, [2]int{3, 0})
	if cyc.Validate() == nil {
		t.Error("cycle accepted")
	}
	rng := &Instance{M: 2, Tasks: []Task{NewTask("x", []float64{2, 1})}, Edges: [][2]int{{0, 5}}}
	if rng.Validate() == nil {
		t.Error("out-of-range edge accepted")
	}
}

// Every task of this instance passes the model checks, but the total work
// at full allotment, 2·1e308 + 2·9e307, overflows float64: Validate and
// every solver reject it instead of reporting a +Inf makespan. Ten times
// smaller it passes validation and solves. (At that magnitude the lazy
// simplex reports a phantom "unbounded", so it is solved here on the
// min-cut sweep, the engine the server's ladder falls back to.)
func TestValidateRejectsWorkOverflow(t *testing.T) {
	huge := &Instance{
		M:     2,
		Tasks: []Task{NewTask("a", []float64{1e308, 1e308}), NewTask("b", []float64{1e308, 9e307})},
		Edges: [][2]int{{0, 1}},
	}
	if err := huge.Validate(); err == nil || !strings.Contains(err.Error(), "total work") {
		t.Errorf("Validate = %v, want the total-work limit", err)
	}
	for name, f := range map[string]func(*Instance) (*Result, error){
		"paper": func(in *Instance) (*Result, error) { return Solve(in) }, "greedy": SolveGreedyCP,
	} {
		if res, err := f(huge); err == nil {
			t.Errorf("%s solved an overflowing instance: makespan %v", name, res.Makespan)
		}
	}

	small := &Instance{
		M:     2,
		Tasks: []Task{NewTask("a", []float64{1e307, 1e307}), NewTask("b", []float64{1e307, 9e306})},
		Edges: [][2]int{{0, 1}},
	}
	if err := small.Validate(); err != nil {
		t.Fatalf("1e307 instance rejected: %v", err)
	}
	for name, f := range map[string]func(*Instance) (*Result, error){
		"paper":  func(in *Instance) (*Result, error) { return Solve(in, WithFormulation(FormulationMincut)) },
		"greedy": SolveGreedyCP,
	} {
		res, err := f(small)
		if err != nil {
			t.Fatalf("%s: 1e307 instance: %v", name, err)
		}
		if math.IsInf(res.Makespan, 0) || res.Makespan < 1e307 {
			t.Errorf("%s: 1e307 instance: makespan %v", name, res.Makespan)
		}
		if err := Verify(small, res); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestBaselinesAndComparison(t *testing.T) {
	in := exampleInstance()
	ours, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]func(*Instance) (*Result, error){
		"ltw": SolveLTW, "seq": SolveSequential, "greedy": SolveGreedyCP, "full": SolveFullAllotment,
	} {
		res, err := f(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := Verify(in, res); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if res.Makespan < ours.LowerBound-1e-9 {
			t.Errorf("%s beat the LP lower bound: %v < %v", name, res.Makespan, ours.LowerBound)
		}
	}
}

func TestOptimalAgreesOnTinyInstance(t *testing.T) {
	in := &Instance{
		M: 2,
		Tasks: []Task{
			NewTask("a", []float64{4, 2}),
			NewTask("b", []float64{4, 2}),
		},
		Edges: [][2]int{{0, 1}},
	}
	opt, err := Optimal(in)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt-4) > 1e-9 {
		t.Errorf("OPT = %v, want 4", opt)
	}
	res, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan < opt-1e-9 {
		t.Errorf("algorithm beat OPT: %v < %v", res.Makespan, opt)
	}
	if res.Makespan > res.ProvenRatio*opt+1e-9 {
		t.Errorf("ratio violated: %v > %v * %v", res.Makespan, res.ProvenRatio, opt)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := exampleInstance()
	var b strings.Builder
	if err := WriteJSON(&b, in); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.M != in.M || len(back.Tasks) != len(in.Tasks) || len(back.Edges) != len(in.Edges) {
		t.Errorf("round trip mismatch: %+v", back)
	}
	if back.Tasks[0].Name != "a" || back.Tasks[0].Times[0] != in.Tasks[0].Times[0] {
		t.Errorf("task content lost: %+v", back.Tasks[0])
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{")); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"m":2,"tasks":[{"Name":"x","Times":[1,2]}],"edges":[]}`)); err == nil {
		t.Error("assumption-violating instance accepted")
	}
}

func TestGanttRendering(t *testing.T) {
	in := exampleInstance()
	res, err := Solve(in)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Gantt(&b, res.Schedule, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "P00") {
		t.Errorf("gantt output missing rows:\n%s", b.String())
	}
}

func TestRandomTaskHelper(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	task := RandomTask("r", 10, 6, rng)
	if err := task.Validate(6); err != nil {
		t.Errorf("RandomTask violates assumptions: %v", err)
	}
}
