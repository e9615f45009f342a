// Package prep implements instance preprocessing on top of internal/dag:
// duplicate-edge deduplication, transitive reduction, and linear-chain
// analysis, applied before phase 1 and the list phase with an exact
// mapping back to original task indices.
//
// All three transforms preserve results exactly, which pins down what
// each is allowed to do:
//
//   - Dedup and transitive reduction only touch the arc set and never
//     the reachability relation, so the precedence PARTIAL ORDER — the
//     only thing either phase consumes semantically — is unchanged.
//     The LP loses rows that were implied (C_i + x_j <= C_j follows
//     along any longer i→j path because processing times are positive),
//     and the list scheduler loses arcs that could never carry a task's
//     ready time (the intermediate task on the longer path always
//     finishes later). Task indices are never renumbered: the mapping
//     back to original tasks is the identity, by construction.
//
//   - Linear chains (maximal runs v_0 → v_1 → ... → v_k where each
//     interior vertex has exactly one predecessor and one successor)
//     cannot be compressed by merging tasks — chain members generally
//     take different allotments, and a merged frontier is the infimal
//     convolution of the members', which no processing-time vector
//     represents. What CAN be compressed exactly is the chain's LP
//     footprint: the interior completion variables C_{v_1..v_{k-1}}
//     appear only in the chain's own precedence rows, so the k rows
//     collapse to the single row C_{v_0} + sum_i x_{v_i} <= C_{v_k}
//     and the interior completions drop out of the model entirely.
//     ChainNext computes that structure; the LP builders in
//     internal/allot consume it. The list phase keeps per-task items
//     (allotments differ along a chain), so chains pass through it
//     unchanged.
//
// Reduce gates its work by graph size: the reachability closure behind
// the fast transitive reduction costs Theta(n^2/8) bytes, so beyond
// MaxReduceN the reduction is skipped and the instance flows through
// untouched — preprocessing is an optimisation, never an obligation.
package prep

import (
	"sort"

	"malsched/internal/dag"
)

// MaxReduceN bounds the vertex count for which Reduce runs the
// bitset-based transitive reduction (the closure needs n^2/8 bytes of
// workspace: 2 MB at the default). Larger graphs are returned as-is.
const MaxReduceN = 4096

// Workspace holds the reusable preprocessing state: the reachability
// bitsets of the transitive reduction and the chain scratch. A
// Workspace is owned by one goroutine at a time; the zero value is
// ready to use.
type Workspace struct {
	reach []uint64 // n rows of n-bit reachability, row-major
	order []int32  // topological order scratch
	indeg []int32
	next  []int32 // chain-link successor per vertex
}

// NewWorkspace returns an empty preprocessing workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// DedupEdges returns the edge list sorted lexicographically with exact
// duplicates removed. The result is a fresh slice; the input is not
// modified. Self-loops and out-of-range indices are preserved for the
// caller's validation to reject — dedup is a canonicalisation, not a
// validity filter.
func DedupEdges(edges [][2]int) [][2]int {
	out := make([][2]int, len(edges))
	copy(out, edges)
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	n := 0
	for i, e := range out {
		if i > 0 && e == out[i-1] {
			continue
		}
		out[n] = e
		n++
	}
	return out[:n]
}

// Reduce returns the transitive reduction of g — the unique minimal
// subgraph with g's reachability relation — computed with per-vertex
// reachability bitsets in O(E·n/64) time, or g itself (same pointer)
// when the graph is too large for the closure workspace or already
// reduction-free. Vertices are never renumbered.
func Reduce(g *dag.DAG) *dag.DAG {
	return NewWorkspace().Reduce(g)
}

// Reduce is the workspace-reusing form of the package-level Reduce.
func (ws *Workspace) Reduce(g *dag.DAG) *dag.DAG {
	n := g.N()
	if n == 0 || n > MaxReduceN {
		return g
	}
	order, ok := ws.Topo(g)
	if !ok {
		return g // cyclic: let the caller's validation report it
	}
	words := (n + 63) / 64
	if cap(ws.reach) < n*words {
		ws.reach = make([]uint64, n*words)
	}
	reach := ws.reach[:n*words]
	clear(reach)

	// In reverse topological order, a vertex reaches the union of its
	// successors and their reaches; an arc (v, s) is redundant exactly
	// when some OTHER successor of v already reaches s.
	redundant := 0
	for i := n - 1; i >= 0; i-- {
		v := int(order[i])
		rv := reach[v*words : (v+1)*words]
		for _, s := range g.Succs(v) {
			rs := reach[s*words : (s+1)*words]
			for w := range rv {
				rv[w] |= rs[w]
			}
		}
		for _, s := range g.Succs(v) {
			if rv[s/64]&(1<<(s%64)) != 0 {
				redundant++
			} else {
				rv[s/64] |= 1 << (s % 64)
			}
		}
	}
	if redundant == 0 {
		return g
	}
	// Rebuild without the redundant arcs: (v, s) is kept when no other
	// successor of v reaches s (equivalently, removing direct successors
	// from v's reach-through-others test). Recompute with a second pass:
	// v's reach-through-others of s = union of reaches of v's successors
	// other than s itself; since distinct successors on a longer path to
	// s must pass through some successor t with s in reach(t), testing
	// s ∈ reach(t) for any t != s in Succs(v) suffices — and reach(t)
	// already includes t itself is false (reach excludes the vertex), so
	// the union test above is exact.
	out := dag.New(n)
	for i := n - 1; i >= 0; i-- {
		v := int(order[i])
		for _, s := range g.Succs(v) {
			through := false
			for _, t := range g.Succs(v) {
				if t == s {
					continue
				}
				if reach[t*words+s/64]&(1<<(s%64)) != 0 {
					through = true
					break
				}
			}
			if !through {
				out.MustEdge(v, s)
			}
		}
	}
	return out
}

// ChainNext returns, for each vertex, its linear-chain successor: w =
// next[v] >= 0 exactly when (v, w) is a chain link — v's only successor
// is w and w's only predecessor is v — and -1 otherwise. Maximal runs
// of links are the linear chains whose interior completion variables
// the LP builders collapse away. The returned slice lives in ws and is
// valid until the next call.
func (ws *Workspace) ChainNext(g *dag.DAG) []int32 {
	n := g.N()
	if cap(ws.next) < n {
		ws.next = make([]int32, n)
	}
	ws.next = ws.next[:n]
	for v := 0; v < n; v++ {
		ws.next[v] = -1
		succ := g.Succs(v)
		if len(succ) != 1 {
			continue
		}
		if w := succ[0]; len(g.Preds(w)) == 1 {
			ws.next[v] = int32(w)
		}
	}
	return ws.next
}

// Topo computes a topological order of g into ws's reusable scratch;
// ok is false for cyclic graphs. The returned slice is valid until the
// next call.
func (ws *Workspace) Topo(g *dag.DAG) ([]int32, bool) {
	n := g.N()
	if cap(ws.order) < n {
		ws.order = make([]int32, 0, n)
		ws.indeg = make([]int32, n)
	}
	order, indeg := ws.order[:0], ws.indeg[:n]
	for v := 0; v < n; v++ {
		indeg[v] = int32(len(g.Preds(v)))
		if indeg[v] == 0 {
			order = append(order, int32(v))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, s := range g.Succs(int(order[head])) {
			if indeg[s]--; indeg[s] == 0 {
				order = append(order, int32(s))
			}
		}
	}
	ws.order = order
	return order, len(order) == n
}

// Depth returns the number of tasks on a longest path of g, 0 for the
// empty graph, from Topo's order. It reuses Topo's in-degree scratch as
// the per-vertex path length (Kahn's pass leaves every ordered vertex's
// count at zero), so it allocates nothing once the workspace has grown.
// On a cyclic g only the vertices Topo ordered are counted.
func (ws *Workspace) Depth(g *dag.DAG) int {
	order, _ := ws.Topo(g)
	reach := ws.indeg[:g.N()]
	depth := int32(0)
	for _, v := range order {
		d := reach[v] + 1
		depth = max(depth, d)
		for _, s := range g.Succs(int(v)) {
			reach[s] = max(reach[s], d)
		}
	}
	return int(depth)
}
