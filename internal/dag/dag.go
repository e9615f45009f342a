// Package dag implements the directed acyclic precedence graphs G = (V, E)
// of the scheduling model: vertices are tasks, and an arc (i, j) means task
// j cannot start before task i completes. It provides construction,
// validation (cycle detection), topological ordering, predecessor/successor
// queries, and node-weighted critical-path computation, which realises the
// critical-path length L used throughout the paper's analysis.
package dag

import (
	"errors"
	"fmt"
)

// DAG is a directed acyclic graph over vertices 0..N-1.
type DAG struct {
	n    int
	succ [][]int // succ[i] = successors of i (Gamma^+)
	pred [][]int // pred[j] = predecessors of j (Gamma^-)
}

// New creates a DAG with n vertices and no arcs.
func New(n int) *DAG {
	if n < 0 {
		panic("dag: negative vertex count")
	}
	return &DAG{n: n, succ: make([][]int, n), pred: make([][]int, n)}
}

// Errors returned by DAG operations.
var (
	ErrVertexRange = errors.New("dag: vertex out of range")
	ErrSelfLoop    = errors.New("dag: self-loop")
	ErrCycle       = errors.New("dag: graph contains a cycle")
)

// N returns the number of vertices.
func (g *DAG) N() int { return g.n }

// M returns the number of arcs.
func (g *DAG) M() int {
	m := 0
	for _, s := range g.succ {
		m += len(s)
	}
	return m
}

// AddEdge inserts the precedence arc (i, j): i must complete before j
// starts. Duplicate arcs are ignored. Cycle freedom is not checked here;
// call Validate after construction.
func (g *DAG) AddEdge(i, j int) error {
	if i < 0 || i >= g.n || j < 0 || j >= g.n {
		return fmt.Errorf("%w: (%d,%d) with n=%d", ErrVertexRange, i, j, g.n)
	}
	if i == j {
		return fmt.Errorf("%w: vertex %d", ErrSelfLoop, i)
	}
	for _, s := range g.succ[i] {
		if s == j {
			return nil
		}
	}
	g.succ[i] = append(g.succ[i], j)
	g.pred[j] = append(g.pred[j], i)
	return nil
}

// MustEdge is AddEdge that panics on error; for use in generators and tests.
func (g *DAG) MustEdge(i, j int) {
	if err := g.AddEdge(i, j); err != nil {
		panic(err)
	}
}

// Preds returns Gamma^-(j), the predecessors of j. The slice is shared;
// callers must not modify it.
func (g *DAG) Preds(j int) []int { return g.pred[j] }

// Succs returns Gamma^+(i), the successors of i. The slice is shared;
// callers must not modify it.
func (g *DAG) Succs(i int) []int { return g.succ[i] }

// Edges returns all arcs as (from, to) pairs in vertex order.
func (g *DAG) Edges() [][2]int {
	out := make([][2]int, 0, g.M())
	for i, ss := range g.succ {
		for _, j := range ss {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// Sources returns the vertices with no predecessors.
func (g *DAG) Sources() []int {
	var out []int
	for v := 0; v < g.n; v++ {
		if len(g.pred[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// Sinks returns the vertices with no successors.
func (g *DAG) Sinks() []int {
	var out []int
	for v := 0; v < g.n; v++ {
		if len(g.succ[v]) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// TopoOrder returns a topological ordering (Kahn's algorithm) or ErrCycle.
func (g *DAG) TopoOrder() ([]int, error) {
	indeg := make([]int, g.n)
	for v := 0; v < g.n; v++ {
		indeg[v] = len(g.pred[v])
	}
	queue := make([]int, 0, g.n)
	for v := 0; v < g.n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	order := make([]int, 0, g.n)
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.succ[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if len(order) != g.n {
		return nil, ErrCycle
	}
	return order, nil
}

// Validate returns ErrCycle if the graph is not acyclic.
func (g *DAG) Validate() error {
	_, err := g.TopoOrder()
	return err
}

// CriticalPath computes, for vertex weights w (w[v] = duration of task v),
// the maximum total weight of a directed path, and one path attaining it.
// This is the critical-path length L of a (fractional or integral)
// allotment. Weights must be non-negative.
func (g *DAG) CriticalPath(w []float64) (float64, []int, error) {
	if len(w) != g.n {
		return 0, nil, fmt.Errorf("dag: weight vector length %d != n=%d", len(w), g.n)
	}
	order, err := g.TopoOrder()
	if err != nil {
		return 0, nil, err
	}
	dist := make([]float64, g.n)
	from := make([]int, g.n)
	best := g.LongestPaths(order, w, dist, from)
	if best < 0 {
		return 0, nil, nil
	}
	var rev []int
	for v := best; v >= 0; v = from[v] {
		rev = append(rev, v)
	}
	path := make([]int, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return dist[best], path, nil
}

// LongestPaths is CriticalPath's pass over a given topological order of g,
// into caller-owned buffers of length n: dist[v] becomes the maximum path
// weight ending at v and from[v] v's predecessor on that path (-1 where
// the path starts). It returns the last vertex of a heaviest path (-1 for
// an empty graph) and allocates nothing, so a caller that re-weights the
// same DAG many times pays O(n+E) per pass, not a new topological order.
func (g *DAG) LongestPaths(order []int, w, dist []float64, from []int) int {
	for v := range dist {
		dist[v], from[v] = 0, -1
	}
	for _, v := range order {
		dist[v] += w[v]
		for _, s := range g.succ[v] {
			if dist[v] > dist[s] {
				dist[s], from[s] = dist[v], v
			}
		}
	}
	best := -1
	for v := 0; v < g.n; v++ {
		if best < 0 || dist[v] > dist[best] {
			best = v
		}
	}
	return best
}

// Reachable reports whether there is a directed path from i to j (i != j).
func (g *DAG) Reachable(i, j int) bool {
	if i == j {
		return false
	}
	seen := make([]bool, g.n)
	stack := []int{i}
	seen[i] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.succ[v] {
			if s == j {
				return true
			}
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

// Clone returns a deep copy of the graph.
func (g *DAG) Clone() *DAG {
	c := New(g.n)
	for i, ss := range g.succ {
		for _, j := range ss {
			c.MustEdge(i, j)
		}
	}
	return c
}

// TransitiveReduction returns a copy of the graph with every arc (i, j)
// removed when j is reachable from i through some longer path. For DAGs the
// reduction is unique. Precedence semantics are unchanged (the constraint
// C_i + x_j <= C_j is implied transitively), so reducing an instance before
// building LP (9) shrinks the precedence rows without changing the optimum.
func (g *DAG) TransitiveReduction() (*DAG, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	out := New(g.n)
	for i := 0; i < g.n; i++ {
		for _, j := range g.succ[i] {
			// Keep (i,j) unless another successor of i reaches j.
			redundant := false
			for _, k := range g.succ[i] {
				if k != j && g.Reachable(k, j) {
					redundant = true
					break
				}
			}
			if !redundant {
				out.MustEdge(i, j)
			}
		}
	}
	return out, nil
}
