package malsched

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"malsched/internal/allot"
)

// TestPhase1MatchesReferenceOnCanned pins the lazy sparse phase 1 to the
// full dense reference build on every canned instance under testdata/ —
// the same instances every solver and the CLI run — completing the
// acceptance matrix: random DAG families are covered in
// internal/allot/lazy_test.go, the committed corpus here.
func TestPhase1MatchesReferenceOnCanned(t *testing.T) {
	files, err := filepath.Glob("testdata/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata instances found: %v", err)
	}
	ws := allot.NewWorkspace()
	for _, path := range files {
		t.Run(filepath.Base(path), func(t *testing.T) {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			in, err := ReadJSON(f)
			if err != nil {
				t.Fatal(err)
			}
			ai, err := in.internal()
			if err != nil {
				t.Fatal(err)
			}
			sparse, err := allot.SolveLPWith(ai, ws)
			if err != nil {
				t.Fatalf("sparse: %v", err)
			}
			ref, err := allot.SolveLPReference(ai)
			if err != nil {
				t.Fatalf("reference: %v", err)
			}
			if d := math.Abs(sparse.C - ref.C); d > 1e-6*(1+math.Abs(ref.C)) {
				t.Errorf("optimum differs by %v: sparse %v, reference %v", d, sparse.C, ref.C)
			}
			if lb := math.Max(sparse.L, sparse.W/float64(ai.M)); lb > sparse.C+1e-6*(1+sparse.C) {
				t.Errorf("lower-bound certificate broken: max{L,W/m}=%v > C*=%v", lb, sparse.C)
			}
			// The parametric min-cut sweep must land on the same optimum
			// on the committed corpus (random families are covered in
			// internal/allot/mincut_test.go).
			mc, err := allot.SolveLPFormulation(ai, ws, allot.FormulationMincut)
			if err != nil {
				t.Fatalf("mincut: %v", err)
			}
			if mc.Formulation != allot.FormulationMincut {
				t.Fatalf("mincut pin solved via %q", mc.Formulation)
			}
			if d := math.Abs(mc.C - ref.C); d > 1e-6*(1+math.Abs(ref.C)) {
				t.Errorf("mincut optimum differs by %v: mincut %v, reference %v", d, mc.C, ref.C)
			}
			if lb := math.Max(mc.L, mc.W/float64(ai.M)); lb > mc.C+1e-6*(1+mc.C) {
				t.Errorf("mincut certificate broken: max{L,W/m}=%v > C*=%v", lb, mc.C)
			}
		})
	}
}
