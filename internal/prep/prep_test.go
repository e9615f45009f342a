package prep_test

import (
	"math/rand"
	"reflect"
	"testing"

	"malsched/internal/dag"
	"malsched/internal/gen"
	"malsched/internal/prep"
)

func TestDedupEdges(t *testing.T) {
	in := [][2]int{{3, 4}, {0, 1}, {3, 4}, {0, 1}, {0, 2}, {3, 4}}
	got := prep.DedupEdges(in)
	want := [][2]int{{0, 1}, {0, 2}, {3, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("DedupEdges = %v, want %v", got, want)
	}
	// The input must not be reordered in place.
	if in[0] != [2]int{3, 4} {
		t.Errorf("DedupEdges mutated its input: %v", in)
	}
	if got := prep.DedupEdges(nil); len(got) != 0 {
		t.Errorf("DedupEdges(nil) = %v", got)
	}
}

// TestReduceMatchesDAGReduction pins the bitset transitive reduction to
// the dag package's reference implementation (unique for DAGs) across
// random graphs.
func TestReduceMatchesDAGReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ws := prep.NewWorkspace()
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(40)
		g := gen.ErdosDAG(n, 0.05+0.4*rng.Float64(), rng)
		want, err := g.TransitiveReduction()
		if err != nil {
			t.Fatal(err)
		}
		got := ws.Reduce(g)
		if !reflect.DeepEqual(edgeSet(got), edgeSet(want)) {
			t.Errorf("trial %d: Reduce arcs %v, reference %v", trial, got.Edges(), want.Edges())
		}
	}
}

// TestReduceIdempotentAndShared: reducing a reduced graph must return
// the same object (so pipelines that preprocess an already-preprocessed
// instance build byte-identical models), and reduction-free graphs flow
// through untouched.
func TestReduceIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ws := prep.NewWorkspace()
	g := gen.ErdosDAG(30, 0.3, rng)
	r1 := ws.Reduce(g)
	if r1 == g {
		t.Fatalf("expected redundant arcs in a dense Erdos DAG (M=%d)", g.M())
	}
	if r2 := ws.Reduce(r1); r2 != r1 {
		t.Errorf("Reduce not idempotent: second reduction rebuilt the graph")
	}
	chain := gen.Chain(10)
	if got := ws.Reduce(chain); got != chain {
		t.Errorf("reduction-free graph was rebuilt")
	}
}

// TestReduceSizeGate: beyond MaxReduceN the graph must flow through
// unchanged (the closure workspace would be quadratic).
func TestReduceSizeGate(t *testing.T) {
	g := dag.New(prep.MaxReduceN + 1)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	g.MustEdge(0, 2) // redundant, but too large to reduce
	if got := prep.Reduce(g); got != g {
		t.Errorf("oversized graph was reduced")
	}
}

func TestChainNext(t *testing.T) {
	// 0 -> 1 -> 2 -> 3 with a side arc 0 -> 4 -> 3: only (1,2) is a link
	// ((0,1) fails because 0 has two successors; (2,3) and (4,3) fail
	// because 3 has two predecessors).
	g := dag.New(5)
	g.MustEdge(0, 1)
	g.MustEdge(1, 2)
	g.MustEdge(2, 3)
	g.MustEdge(0, 4)
	g.MustEdge(4, 3)
	next := prep.NewWorkspace().ChainNext(g)
	want := []int32{-1, 2, -1, -1, -1}
	if !reflect.DeepEqual(next, want) {
		t.Errorf("ChainNext = %v, want %v", next, want)
	}

	// A pure chain is one maximal run of links.
	c := gen.Chain(6)
	next = prep.NewWorkspace().ChainNext(c)
	for v := 0; v < 5; v++ {
		if next[v] != int32(v+1) {
			t.Errorf("chain: next[%d] = %d, want %d", v, next[v], v+1)
		}
	}
	if next[5] != -1 {
		t.Errorf("chain: next[5] = %d, want -1", next[5])
	}
}

func edgeSet(g *dag.DAG) map[[2]int]bool {
	s := make(map[[2]int]bool)
	for _, e := range g.Edges() {
		s[e] = true
	}
	return s
}

// TestDepth counts tasks on a longest path, reusing one workspace across
// graphs of different sizes, and on a cyclic graph counts only what Topo
// orders (the tasks before the cycle).
func TestDepth(t *testing.T) {
	cyclic := dag.New(4)
	cyclic.MustEdge(0, 1)
	cyclic.MustEdge(1, 2)
	cyclic.MustEdge(2, 1)
	cyclic.MustEdge(2, 3)
	diamond := dag.New(4)
	diamond.MustEdge(0, 1)
	diamond.MustEdge(0, 2)
	diamond.MustEdge(1, 3)
	diamond.MustEdge(2, 3)
	diamond.MustEdge(0, 3)
	ws := prep.NewWorkspace()
	for _, c := range []struct {
		name string
		g    *dag.DAG
		want int
	}{
		{"chain", gen.Chain(50), 50},
		{"empty", dag.New(0), 0},
		{"independent", gen.Independent(7), 1},
		{"layered", gen.Layered(9, 4, 3, rand.New(rand.NewSource(1))), 9},
		{"diamond with a shortcut", diamond, 3},
		{"cyclic", cyclic, 1},
	} {
		if got := ws.Depth(c.g); got != c.want {
			t.Errorf("%s: depth %d, want %d", c.name, got, c.want)
		}
	}
}
