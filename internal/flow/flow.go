// Package flow implements Fulkerson's parametric min-cut sweep for the
// project-crashing LP: given an activity-on-arc DAG whose arcs carry a
// base duration and a convex piecewise-linear crashing curve (crash
// amount y in [0, ymax] costs rate_k per unit on piece k, rates
// non-decreasing by convexity), it traces the crashing-cost function
//
//	phi(lambda) = min{ cost(y) : every src->snk path has length <= lambda }
//
// downward from the uncrashed project length, one breakpoint at a time,
// until the caller's stopping line m*lambda = phi(lambda) is crossed.
// phi is convex piecewise linear in lambda and its one-sided derivative
// at the current lambda is exactly the value of a min cut in the "tight
// network" — the subgraph of arcs on some critical path — where a tight
// arc's forward capacity is the marginal cost of crashing it further
// (the rate of the piece above y, +inf once fully crashed or rigid) and
// its backward capacity the marginal saving of un-crashing it (the rate
// of the piece below y, 0 at y=0). A max flow on that network certifies
// the cheapest cut; shrinking lambda by delta crashes every forward-cut
// arc by delta and un-crashes every flow-carrying backward-cut arc by
// delta, which keeps all critical path lengths equal to lambda at
// minimal cost.
//
// The sweep is event-driven so a breakpoint costs O(log E), not a graph
// scan. Between two flow changes every tracked quantity moves at unit
// rate in lambda: a forward-cut arc's crash amount grows 1:1 as lambda
// falls, a backward-cut arc's shrinks 1:1, every sink-side potential
// falls 1:1, and the slack of a source-to-sink-side non-critical arc
// shrinks 1:1. So the lambda at which any arc next does something — a
// cut arc reaching the boundary of its cost piece, a slack arc going
// critical — is a constant, computed once and kept in a max-heap, while
// the quantities themselves are stored lazily (an offset against the
// lambda at which they were last materialised). Popping an event either
// re-arms the arc on its next piece, or opens residual capacity, in
// which case flow augments straight through the opened arc — source
// tree, the arc, a sink-side search beyond it — until it re-saturates;
// only when no augmenting path remains beyond the arc does the far
// component join the source side R by an incremental search that
// extends the cut in place. The crossing of
// m*lambda with phi is itself just the final event. An augmenting path
// of infinite bottleneck proves no finite cut remains: lambda has hit
// the fully-crashed critical-path length and cannot decrease further.
//
// The solver is allocation-free across solves through a reusable
// Workspace, polls a cancelflag between events, and is the engine
// behind the "mincut" phase-1 formulation in internal/allot.
package flow

import (
	"errors"
	"fmt"
	"math"

	"malsched/internal/cancelflag"
)

// ErrStalled is returned when the sweep exceeds its event or
// augmentation budget — on this pipeline that is a numerical-degeneracy
// symptom, not a model property (the breakpoint count is finite), so
// the serving layer's degradation ladder classifies it as recoverable.
var ErrStalled = errors.New("flow: parametric sweep stalled")

// errChain reports an R-tree parent chain that does not reach the
// source within the node count: the tree is corrupt, and the sweep fails
// recoverably instead of walking the cycle forever.
var errChain = fmt.Errorf("%w: source-side tree chain does not reach the source", ErrStalled)

// FaultSweep, when armed by a test, is consulted once per event;
// returning true fails the sweep with ErrStalled. Nil in production
// (see internal/faultinject).
var FaultSweep func() bool

// afterRepair, when set by a test, runs after every R-tree repair
// (processOrphans) so the tree invariants can be audited mid-sweep.
var afterRepair func(ws *Workspace)

// Event kinds: a cut arc hitting a piece boundary of its crashing curve
// (forward = crashing, backward = un-crashing), and a slack arc from
// the source side becoming critical.
const (
	evFwdPiece int8 = iota
	evBwdPiece
	evSlack
)

// event is one pending breakpoint: at lambda = lam, arc arc does
// something. stamp invalidates the entry lazily: it must still equal
// the arc's stamp when popped.
type event struct {
	lam   float64
	arc   int32
	stamp int32
	kind  int8
}

// Workspace holds the network under construction and every scratch
// buffer of the sweep, grown geometrically and reused across solves.
// Build a network with Reset/Arc/Piece, then call Sweep. A Workspace is
// owned by one goroutine at a time.
type Workspace struct {
	// Cancel, when non-nil, is polled once per event and aborts the
	// sweep with cancelflag.ErrCanceled.
	Cancel *cancelflag.Flag

	// Lambda is the final makespan parameter after Sweep: the length of
	// the critical path under the returned crash amounts. Phi is the
	// final crashing cost including the phi0 offset passed to Sweep.
	Lambda, Phi float64
	// Breakpoints counts the parametric events processed; Augments the
	// warm augmenting paths across all flow re-solves.
	Breakpoints, Augments int

	nodes int
	tail  []int32
	head  []int32
	base  []float64

	// Crash curves, flat: arc a's pieces are rate/cum[curveOff[a]:
	// curveOff[a+1]]; cum holds the cumulative crash boundary at the END
	// of each piece (piece k spans (cum[k-1], cum[k]] from the arc's
	// local origin). curveOff[a] == curveOff[a+1] marks a rigid arc.
	curveOff []int32
	rate     []float64
	cum      []float64

	y []float64 // crash amount per arc (materialised value)
	f []float64 // flow per arc (on the tight network)
	t []float64 // node potentials (materialised value)

	// Cached marginal rates at the materialised y, refreshed on every
	// snapY: sU[a] = sigma+ (piece above, +inf when rigid/full), sD[a] =
	// sigma- (piece below, 0 at y=0). The flow searches touch every arc
	// many times per re-solve and must not walk piece cursors each time.
	sU []float64
	sD []float64

	kcur []int32 // cached curve-piece cursor per arc

	// Lazy-offset bookkeeping (see the package comment): cutDir is +1
	// for a crashing forward-cut arc, -1 for an un-crashing
	// backward-cut arc, 0 otherwise; lamEnter the lambda at which the
	// arc's y was last materialised; arcStamp invalidates heap entries;
	// inR marks source-side nodes by epoch (rEpoch increments on every
	// flow rebuild). lamMat is the lambda at which all sink-side
	// potentials were last materialised.
	cutDir   []int8
	lamEnter []float64
	arcStamp []int32
	inR      []int32
	rEpoch   int32
	heap     []event
	heapPos  []int32

	// The R tree: parent (below) holds the residual tight arc each
	// source-side node was reached through, and firstKid/nextSib/prevSib
	// its children, so a flow change can detach and repair exactly the
	// subtrees below saturated arcs instead of recomputing R by a graph
	// search. orph stamps the subtrees detached in the current repair
	// round (orphEpoch).
	firstKid  []int32
	nextSib   []int32
	prevSib   []int32
	orph      []int32
	orphEpoch int32
	orphList  []int32
	orphNodes []int32

	// Sink-side search scratch (reopen): sPar records the residual
	// tight arc each sink-side node was reached through, sSeen marks
	// visits by epoch so the arrays never need clearing per search.
	sPar   []int32
	sSeen  []int32
	sEpoch int32
	dstack []int32

	lam, lamMat float64
	phi, muv    float64
	msw         float64
	src, snk    int
	evBudget    int
	augBudget   int

	// CSR adjacency over both endpoints: entry enc = arc<<1 | dir with
	// dir 0 at the tail (forward traversal) and 1 at the head.
	adjOff []int32
	adjArc []int32

	parent []int32 // BFS: adjacency encoding used to reach node; -1 unvisited, -2 root
	queue  []int32
	indeg  []int32

	tightEps float64
	bEps     float64
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Reset clears the network and prepares for nodes nodes (0..nodes-1).
func (ws *Workspace) Reset(nodes int) {
	ws.nodes = nodes
	ws.tail = ws.tail[:0]
	ws.head = ws.head[:0]
	ws.base = ws.base[:0]
	ws.curveOff = append(ws.curveOff[:0], 0)
	ws.rate = ws.rate[:0]
	ws.cum = ws.cum[:0]
}

// Arc appends an arc from u to v with uncrashed duration dur and no
// crashing curve yet (rigid until Piece is called), returning its id.
func (ws *Workspace) Arc(u, v int, dur float64) int {
	a := len(ws.tail)
	ws.tail = append(ws.tail, int32(u))
	ws.head = append(ws.head, int32(v))
	ws.base = append(ws.base, dur)
	ws.curveOff = append(ws.curveOff, ws.curveOff[len(ws.curveOff)-1])
	return a
}

// Piece appends one crashing-cost piece to the most recently added arc:
// the next width units of crash cost rate per unit. Callers must add
// pieces in convex order (non-decreasing rates); zero or vanishing
// widths are dropped.
func (ws *Workspace) Piece(rate, width float64) {
	prev := 0.0
	if n := len(ws.cum); int32(n) > ws.curveOff[len(ws.curveOff)-2] {
		prev = ws.cum[n-1]
	}
	if width <= 1e-12*(1+prev) {
		return
	}
	ws.rate = append(ws.rate, rate)
	ws.cum = append(ws.cum, prev+width)
	ws.curveOff[len(ws.curveOff)-1]++
}

// grown returns s resized to n with unspecified contents.
func grown[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	return make([]T, n, c)
}

// dur returns arc a's current (materialised) duration.
func (ws *Workspace) dur(a int32) float64 { return ws.base[a] - ws.y[a] }

// Y returns the crash amount of arc a after Sweep.
func (ws *Workspace) Y(a int) float64 { return ws.y[a] }

// CrashCost evaluates the crashing curves at the current crash amounts:
// the exact cost Phi-phi0 should equal after Sweep. Used by tests to
// audit the sweep's incremental cost accounting.
func (ws *Workspace) CrashCost() float64 {
	total := 0.0
	for a := 0; a < len(ws.tail); a++ {
		total += ws.ArcCrashCost(a)
	}
	return total
}

// ArcCrashCost evaluates arc a's crashing curve at its current crash
// amount.
func (ws *Workspace) ArcCrashCost(a int) float64 {
	y := ws.y[a]
	lo := 0.0
	total := 0.0
	for k := ws.curveOff[a]; k < ws.curveOff[a+1] && y > lo; k++ {
		hi := ws.cum[k]
		seg := y
		if seg > hi {
			seg = hi
		}
		total += ws.rate[k] * (seg - lo)
		lo = hi
	}
	return total
}

// pieceUp returns the index into rate/cum of the piece governing
// further crashing of arc a (the marginal-cost piece above y), or -1
// when the arc is rigid or fully crashed (marginal cost +inf). Uses the
// materialised y.
func (ws *Workspace) pieceUp(a int32) int32 {
	s, e := ws.curveOff[a], ws.curveOff[a+1]
	if s == e {
		return -1
	}
	lim := ws.y[a] + ws.bEps
	k := ws.kcur[a]
	if k < s {
		k = s
	} else if k > e {
		k = e
	}
	for k < e && ws.cum[k] <= lim {
		k++
	}
	for k > s && ws.cum[k-1] > lim {
		k--
	}
	ws.kcur[a] = k
	if k == e {
		return -1
	}
	return k
}

// pieceDown returns the piece governing un-crashing of arc a (the
// marginal-saving piece below y), or -1 at y=0 (nothing to undo).
func (ws *Workspace) pieceDown(a int32) int32 {
	s, e := ws.curveOff[a], ws.curveOff[a+1]
	if s == e || ws.y[a] <= ws.bEps {
		return -1
	}
	lim := ws.y[a] - ws.bEps
	k := ws.kcur[a]
	if k < s {
		k = s
	} else if k >= e {
		k = e - 1
	}
	for k < e-1 && ws.cum[k] < lim {
		k++
	}
	for k > s && ws.cum[k-1] >= lim {
		k--
	}
	return k
}

// sigUp is the marginal crashing cost of arc a at its materialised y.
func (ws *Workspace) sigUp(a int32) float64 { return ws.sU[a] }

// sigDown is the marginal un-crashing saving of arc a at its
// materialised y.
func (ws *Workspace) sigDown(a int32) float64 { return ws.sD[a] }

// refreshSig recomputes the cached marginal rates after y moved.
func (ws *Workspace) refreshSig(a int32) {
	if k := ws.pieceUp(a); k >= 0 {
		ws.sU[a] = ws.rate[k]
	} else {
		ws.sU[a] = math.Inf(1)
	}
	if k := ws.pieceDown(a); k >= 0 {
		ws.sD[a] = ws.rate[k]
	} else {
		ws.sD[a] = 0
	}
}

// buildAdj assembles the CSR adjacency over both endpoints.
func (ws *Workspace) buildAdj() {
	nA := len(ws.tail)
	ws.adjOff = grown(ws.adjOff, ws.nodes+1)
	for i := range ws.adjOff {
		ws.adjOff[i] = 0
	}
	for a := 0; a < nA; a++ {
		ws.adjOff[ws.tail[a]+1]++
		ws.adjOff[ws.head[a]+1]++
	}
	for v := 0; v < ws.nodes; v++ {
		ws.adjOff[v+1] += ws.adjOff[v]
	}
	ws.adjArc = grown(ws.adjArc, 2*nA)
	fill := grown(ws.queue, ws.nodes)
	copy(fill, ws.adjOff[:ws.nodes])
	// Backward (head-side) entries first, forward last: the sink search
	// expands the most recently discovered node, so putting forward arcs
	// last biases its DFS downstream, toward the sink, and successful
	// searches stay near path length on DAG-shaped networks.
	for a := 0; a < nA; a++ {
		ws.adjArc[fill[ws.head[a]]] = int32(a<<1 | 1)
		fill[ws.head[a]]++
	}
	for a := 0; a < nA; a++ {
		ws.adjArc[fill[ws.tail[a]]] = int32(a << 1)
		fill[ws.tail[a]]++
	}
	ws.queue = fill[:0]
}

// longestPaths computes the uncrashed longest-path potentials in
// topological order (Kahn). Returns an error on a cycle.
func (ws *Workspace) longestPaths() error {
	nA := len(ws.tail)
	ws.indeg = grown(ws.indeg, ws.nodes)
	ws.t = grown(ws.t, ws.nodes)
	for v := 0; v < ws.nodes; v++ {
		ws.indeg[v] = 0
		ws.t[v] = 0
	}
	for a := 0; a < nA; a++ {
		ws.indeg[ws.head[a]]++
	}
	q := grown(ws.queue, 0)
	for v := 0; v < ws.nodes; v++ {
		if ws.indeg[v] == 0 {
			q = append(q, int32(v))
		}
	}
	done := 0
	for qh := 0; qh < len(q); qh++ {
		u := q[qh]
		done++
		for e := ws.adjOff[u]; e < ws.adjOff[u+1]; e++ {
			enc := ws.adjArc[e]
			if enc&1 != 0 {
				continue
			}
			a := enc >> 1
			v := ws.head[a]
			if d := ws.t[u] + ws.base[a]; d > ws.t[v] {
				ws.t[v] = d
			}
			ws.indeg[v]--
			if ws.indeg[v] == 0 {
				q = append(q, v)
			}
		}
	}
	ws.queue = q[:0]
	if done != ws.nodes {
		return fmt.Errorf("%w: network is not acyclic", ErrStalled)
	}
	return nil
}

// inRf reports whether v is on the source side of the current cut.
func (ws *Workspace) inRf(v int32) bool { return ws.inR[v] == ws.rEpoch }

// tRealOut returns the real potential of a sink-side node (sink-side
// potentials fall 1:1 with lambda and are stored lazily against lamMat).
func (ws *Workspace) tRealOut(v int32) float64 { return ws.t[v] - (ws.lamMat - ws.lam) }

// join moves v onto the source side, materialising its potential
// (source-side potentials no longer move).
func (ws *Workspace) join(v int32) {
	ws.t[v] -= ws.lamMat - ws.lam
	ws.inR[v] = ws.rEpoch
}

// pnode returns the parent node of v in the R tree.
func (ws *Workspace) pnode(v int32) int32 {
	enc := ws.parent[v]
	a := enc >> 1
	if enc&1 == 0 {
		return ws.tail[a]
	}
	return ws.head[a]
}

// linkChild records v as a child of p in the R tree.
func (ws *Workspace) linkChild(p, v int32) {
	ws.prevSib[v] = -1
	ws.nextSib[v] = ws.firstKid[p]
	if c := ws.firstKid[p]; c >= 0 {
		ws.prevSib[c] = v
	}
	ws.firstKid[p] = v
}

// unlinkChild removes v from p's child list.
func (ws *Workspace) unlinkChild(p, v int32) {
	if pr := ws.prevSib[v]; pr >= 0 {
		ws.nextSib[pr] = ws.nextSib[v]
	} else {
		ws.firstKid[p] = ws.nextSib[v]
	}
	if n := ws.nextSib[v]; n >= 0 {
		ws.prevSib[n] = ws.prevSib[v]
	}
}

// realT returns the real potential of any node at the current lambda.
func (ws *Workspace) realT(v int32) float64 {
	if ws.inRf(v) {
		return ws.t[v]
	}
	return ws.t[v] - (ws.lamMat - ws.lam)
}

// matArc materialises a lazy cut arc's crash amount at the current
// lambda (snapped onto an adjacent piece boundary when within
// tolerance) and retires it from the cut bookkeeping.
func (ws *Workspace) matArc(a int32) {
	if d := ws.cutDir[a]; d != 0 {
		ws.snapY(a, ws.y[a]+float64(d)*(ws.lamEnter[a]-ws.lam))
		ws.cutDir[a] = 0
	}
	ws.arcStamp[a]++
}

// matAll materialises every lazy quantity at the current lambda.
func (ws *Workspace) matAll() {
	for v := int32(0); int(v) < ws.nodes; v++ {
		if !ws.inRf(v) {
			ws.t[v] -= ws.lamMat - ws.lam
		}
	}
	ws.lamMat = ws.lam
	for a := int32(0); int(a) < len(ws.tail); a++ {
		if ws.cutDir[a] != 0 {
			ws.matArc(a)
		}
	}
}

// advance moves lambda down to `to`, accruing crashing cost at the
// current cut rate.
func (ws *Workspace) advance(to float64) {
	if to > ws.lam {
		to = ws.lam
	}
	ws.phi += ws.muv * (ws.lam - to)
	ws.lam = to
}

// heap: an arc-indexed binary max-heap on event.lam. Each arc owns at
// most one slot (heapPos); pushing an arc that already has a pending
// entry overwrites it in place. The stamp discipline guarantees at most
// one *valid* event per arc at any time, so overwriting can only ever
// replace a stale entry — and bounding the heap at one slot per arc is
// what keeps event churn from the incremental cut repair cheap.
func (ws *Workspace) siftUp(i int) int {
	h := ws.heap
	for i > 0 {
		p := (i - 1) / 2
		if h[p].lam >= h[i].lam {
			break
		}
		h[p], h[i] = h[i], h[p]
		ws.heapPos[h[i].arc] = int32(i)
		i = p
	}
	ws.heapPos[h[i].arc] = int32(i)
	return i
}

//malsched:noalloc
func (ws *Workspace) siftDown(i int) {
	h := ws.heap
	//malsched:bounded heap sift-down walks one root-to-leaf path, depth <= log n
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && h[l].lam > h[big].lam {
			big = l
		}
		if r < len(h) && h[r].lam > h[big].lam {
			big = r
		}
		if big == i {
			break
		}
		h[i], h[big] = h[big], h[i]
		ws.heapPos[h[i].arc] = int32(i)
		i = big
	}
	ws.heapPos[h[i].arc] = int32(i)
}

func (ws *Workspace) push(e event) {
	if i := ws.heapPos[e.arc]; i >= 0 {
		ws.heap[i] = e
		if at := ws.siftUp(int(i)); at == int(i) {
			ws.siftDown(at)
		}
		return
	}
	ws.heap = append(ws.heap, e)
	ws.siftUp(len(ws.heap) - 1)
}

// popValid pops the next still-valid event (largest lambda), skipping
// entries whose arc changed state since they were pushed.
func (ws *Workspace) popValid() (event, bool) {
	for len(ws.heap) > 0 {
		top := ws.heap[0]
		ws.heapPos[top.arc] = -1
		last := len(ws.heap) - 1
		ws.heap[0] = ws.heap[last]
		ws.heap = ws.heap[:last]
		if last > 0 {
			ws.siftDown(0)
		}
		if top.stamp == ws.arcStamp[top.arc] {
			return top, true
		}
	}
	return event{}, false
}

// enterCut puts arc a on the cut with the given direction and arms its
// next piece-boundary event. Callers materialise the arc first.
func (ws *Workspace) enterCut(a int32, dir int8) {
	ws.cutDir[a] = dir
	ws.lamEnter[a] = ws.lam
	ws.arcStamp[a]++
	if dir > 0 {
		if k := ws.pieceUp(a); k >= 0 {
			ws.push(event{ws.lam - (ws.cum[k] - ws.y[a]), a, ws.arcStamp[a], evFwdPiece})
		}
	} else {
		if k := ws.pieceDown(a); k >= 0 {
			lo := 0.0
			if k > ws.curveOff[a] {
				lo = ws.cum[k-1]
			}
			ws.push(event{ws.lam - (ws.y[a] - lo), a, ws.arcStamp[a], evBwdPiece})
		}
	}
}

// tight reports whether arc a lies on a critical path segment under the
// materialised values (valid right after matAll).
func (ws *Workspace) tight(a int32) bool {
	return ws.t[ws.head[a]]-ws.t[ws.tail[a]]-ws.dur(a) <= ws.tightEps
}

// residual returns the residual capacity of traversing arc a in the
// given direction of the tight network (materialised values).
func (ws *Workspace) residual(a int32, fwd bool) float64 {
	if fwd {
		return ws.sigUp(a) - ws.f[a]
	}
	return ws.f[a] - ws.sigDown(a)
}

// Saturation is judged relative to the rates being compared, never an
// absolute or per-arc scale: a single near-degenerate frontier segment
// produces a chord slope many orders of magnitude above its neighbours
// on the same curve, and any epsilon derived from the large rate would
// swallow real residuals on the ordinary pieces.
const satEps = 1e-10

// fwdOpen reports whether arc a has usable forward residual: the
// marginal crashing rate above y exceeds the flow by more than rounding.
func (ws *Workspace) fwdOpen(a int32) bool {
	s := ws.sigUp(a)
	if math.IsInf(s, 1) {
		return true
	}
	return s-ws.f[a] > satEps*(1+s)
}

// bwdOpen reports whether arc a has usable backward residual: the flow
// exceeds the marginal un-crashing saving below y by more than rounding.
func (ws *Workspace) bwdOpen(a int32) bool {
	return ws.f[a]-ws.sigDown(a) > satEps*(1+ws.f[a])
}

// hasFlow reports whether arc a carries numerically meaningful flow.
func (ws *Workspace) hasFlow(a int32) bool {
	return ws.f[a] > satEps*(1+ws.sigDown(a))
}

// bfs searches the tight residual network from src, recording parents.
// It returns true when snk was reached. Requires materialised values.
func (ws *Workspace) bfs() bool {
	for v := 0; v < ws.nodes; v++ {
		ws.parent[v] = -1
	}
	ws.parent[ws.src] = -2
	q := ws.queue[:0]
	q = append(q, int32(ws.src))
	for qh := 0; qh < len(q); qh++ {
		u := q[qh]
		for e := ws.adjOff[u]; e < ws.adjOff[u+1]; e++ {
			enc := ws.adjArc[e]
			a := enc >> 1
			fwd := enc&1 == 0
			var v int32
			if fwd {
				v = ws.head[a]
			} else {
				v = ws.tail[a]
			}
			if ws.parent[v] != -1 || !ws.tight(a) {
				continue
			}
			if fwd {
				if !ws.fwdOpen(a) {
					continue
				}
			} else if !ws.bwdOpen(a) {
				continue
			}
			ws.parent[v] = enc
			if int(v) == ws.snk {
				ws.queue = q
				return true
			}
			q = append(q, v)
		}
	}
	ws.queue = q
	return false
}

// rebuild re-solves the max flow warm from the current flow and rescans
// the cut. Returns done=true when an infinite-bottleneck augmenting
// path proved lambda is at its floor.
func (ws *Workspace) rebuildFull() (done bool, err error) {
	ws.matAll()
	for ws.bfs() {
		bott := math.Inf(1)
		for v := int32(ws.snk); int(v) != ws.src; {
			enc := ws.parent[v]
			a := enc >> 1
			fwd := enc&1 == 0
			if r := ws.residual(a, fwd); r < bott {
				bott = r
			}
			if fwd {
				v = ws.tail[a]
			} else {
				v = ws.head[a]
			}
		}
		if math.IsInf(bott, 1) {
			return true, nil
		}
		for v := int32(ws.snk); int(v) != ws.src; {
			enc := ws.parent[v]
			a := enc >> 1
			fwd := enc&1 == 0
			if fwd {
				ws.f[a] += bott
				v = ws.tail[a]
			} else {
				ws.f[a] -= bott
				if ws.f[a] < 0 {
					ws.f[a] = 0
				}
				v = ws.head[a]
			}
		}
		ws.muv += bott
		ws.Augments++
		if ws.augBudget--; ws.augBudget < 0 {
			return false, fmt.Errorf("%w: augmentation budget exceeded", ErrStalled)
		}
	}

	// The failed search left R in parent; rescan the crossing arcs and
	// re-arm the event heap from scratch.
	ws.rEpoch++
	for v := 0; v < ws.nodes; v++ {
		if ws.parent[v] != -1 {
			ws.inR[v] = ws.rEpoch
		}
	}
	for i := range ws.heap {
		ws.heapPos[ws.heap[i].arc] = -1
	}
	ws.heap = ws.heap[:0]
	for a := int32(0); int(a) < len(ws.tail); a++ {
		iu, iv := ws.inRf(ws.tail[a]), ws.inRf(ws.head[a])
		if iu == iv {
			continue
		}
		slack := ws.t[ws.head[a]] - ws.t[ws.tail[a]] - ws.dur(a)
		if iu {
			if slack > ws.tightEps {
				ws.arcStamp[a]++
				ws.push(event{ws.lam - slack, a, ws.arcStamp[a], evSlack})
			} else {
				ws.enterCut(a, +1)
			}
		} else if slack <= ws.tightEps && ws.hasFlow(a) {
			ws.enterCut(a, -1)
		}
	}
	for v := int32(0); int(v) < ws.nodes; v++ {
		ws.firstKid[v] = -1
	}
	for v := int32(0); int(v) < ws.nodes; v++ {
		if ws.inRf(v) && int(v) != ws.src {
			ws.linkChild(ws.pnode(v), v)
		}
	}
	return false, nil
}

// resolveIncremental restores a max flow and the exact min cut after
// grow reached the sink: the R-tree parent chain of the sink is already
// an augmenting path (tree arcs lie inside R, where potentials, crash
// amounts and flows are all frozen between re-solves, so the chain is
// still tight and residual). Augmenting can only shrink reachability —
// the reverse residuals it opens lie on the chain, inside R — so the
// repair detaches the subtrees below saturated chain arcs, re-adopts
// what is still reachable, and evicts the rest, reclassifying only the
// arcs around evicted nodes. The sweep's cost per flow change is the
// size of the disturbed region, not the graph.
func (ws *Workspace) resolveIncremental() (done bool, err error) {
	for ws.inRf(int32(ws.snk)) {
		bott := math.Inf(1)
		for v, k := int32(ws.snk), 0; int(v) != ws.src; v, k = ws.pnode(v), k+1 {
			enc := ws.parent[v]
			if enc < 0 || k >= ws.nodes {
				return false, errChain
			}
			if r := ws.residual(enc>>1, enc&1 == 0); r < bott {
				bott = r
			}
		}
		if math.IsInf(bott, 1) {
			return true, nil
		}
		roots := ws.orphList[:0]
		for v, k := int32(ws.snk), 0; int(v) != ws.src; v, k = ws.pnode(v), k+1 {
			enc := ws.parent[v]
			if enc < 0 || k >= ws.nodes {
				return false, errChain
			}
			a := enc >> 1
			if enc&1 == 0 {
				ws.f[a] += bott
				if !ws.fwdOpen(a) {
					roots = append(roots, v)
				}
			} else {
				ws.f[a] -= bott
				if ws.f[a] < 0 {
					ws.f[a] = 0
				}
				if !ws.bwdOpen(a) {
					roots = append(roots, v)
				}
			}
		}
		ws.orphList = roots
		ws.muv += bott
		ws.Augments++
		if ws.augBudget--; ws.augBudget < 0 {
			return false, fmt.Errorf("%w: augmentation budget exceeded", ErrStalled)
		}
		ws.processOrphans(roots)
	}
	return false, nil
}

// tryAdopt scans orphan v's neighbourhood for a residual tight arc from
// a still-rooted source-side node and reattaches v under it.
func (ws *Workspace) tryAdopt(v int32) bool {
	ep := ws.orphEpoch
	for e := ws.adjOff[v]; e < ws.adjOff[v+1]; e++ {
		enc := ws.adjArc[e]
		a := enc >> 1
		var u int32
		if enc&1 != 0 { // v is the head: forward residual from the tail
			u = ws.tail[a]
		} else { // v is the tail: backward residual from the head
			u = ws.head[a]
		}
		if ws.orph[u] == ep || !ws.inRf(u) || !ws.tight(a) {
			continue
		}
		if enc&1 != 0 {
			if !ws.fwdOpen(a) {
				continue
			}
		} else if !ws.bwdOpen(a) {
			continue
		}
		if ws.parent[v] >= 0 { // a detached root is in no child list
			ws.unlinkChild(ws.pnode(v), v)
		}
		if enc&1 != 0 {
			ws.parent[v] = a << 1
		} else {
			ws.parent[v] = a<<1 | 1
		}
		ws.linkChild(u, v)
		ws.orph[v] = ep - 1
		return true
	}
	return false
}

// processOrphans repairs the R tree after an augmentation saturated the
// parent arcs of roots: detach their subtrees, re-adopt every orphan
// that still has a residual tight arc from the rooted side (adoptions
// seed a frontier search that can pull whole subtrees back), then evict
// the rest from R and reclassify the cut arcs they expose. A detached
// root's parent is cleared with the unlink: its sibling links go stale
// at once, and unlinking it a second time through them (on adoption)
// would cut live children out of the old parent's list.
func (ws *Workspace) processOrphans(roots []int32) {
	ws.orphEpoch++
	ep := ws.orphEpoch
	nodes := ws.orphNodes[:0]
	for _, r := range roots {
		if ws.orph[r] == ep {
			continue // already inside an earlier root's subtree
		}
		ws.unlinkChild(ws.pnode(r), r)
		ws.parent[r] = -1
		ws.orph[r] = ep
		nodes = append(nodes, r)
		for i := len(nodes) - 1; i < len(nodes); i++ {
			for c := ws.firstKid[nodes[i]]; c >= 0; c = ws.nextSib[c] {
				ws.orph[c] = ep
				nodes = append(nodes, c)
			}
		}
	}
	ws.orphNodes = nodes

	q := ws.queue[:0]
	for _, v := range nodes {
		if ws.orph[v] == ep && ws.tryAdopt(v) {
			q = append(q, v)
		}
	}
	for qh := 0; qh < len(q); qh++ {
		u := q[qh]
		for e := ws.adjOff[u]; e < ws.adjOff[u+1]; e++ {
			enc := ws.adjArc[e]
			a := enc >> 1
			var w int32
			if enc&1 == 0 { // u is the tail: forward residual towards the head
				w = ws.head[a]
			} else { // u is the head: backward residual towards the tail
				w = ws.tail[a]
			}
			if ws.orph[w] != ep || !ws.tight(a) {
				continue
			}
			if enc&1 == 0 {
				if !ws.fwdOpen(a) {
					continue
				}
			} else if !ws.bwdOpen(a) {
				continue
			}
			if ws.parent[w] >= 0 {
				ws.unlinkChild(ws.pnode(w), w)
			}
			if enc&1 == 0 {
				ws.parent[w] = a << 1
			} else {
				ws.parent[w] = a<<1 | 1
			}
			ws.linkChild(u, w)
			ws.orph[w] = ep - 1
			q = append(q, w)
		}
	}
	ws.queue = q[:0]

	// Evict the unreachable leftovers and put their potentials back on
	// the falling sink-side clock: join materialised t[v] at the lambda
	// of the join, and re-basing against lamMat here re-attaches it to
	// the shared lazy representation (tRealOut subtracts the drift
	// accumulated since lamMat, which is exactly the amount added back).
	for _, v := range nodes {
		if ws.orph[v] != ep {
			continue
		}
		ws.inR[v] = -1
		ws.parent[v] = -1
		ws.firstKid[v] = -1
		ws.t[v] += ws.lamMat - ws.lam
	}
	for _, v := range nodes {
		if ws.orph[v] != ep {
			continue
		}
		for e := ws.adjOff[v]; e < ws.adjOff[v+1]; e++ {
			a := ws.adjArc[e] >> 1
			if ws.cutDir[a] != 0 {
				ws.matArc(a)
			} else if ws.heapPos[a] >= 0 {
				ws.arcStamp[a]++
			}
			iu, iv := ws.inRf(ws.tail[a]), ws.inRf(ws.head[a])
			if iu == iv {
				continue
			}
			slack := ws.realT(ws.head[a]) - ws.realT(ws.tail[a]) - ws.dur(a)
			if iu {
				if slack > ws.tightEps {
					ws.push(event{ws.lam - slack, a, ws.arcStamp[a], evSlack})
				} else {
					ws.enterCut(a, +1)
				}
			} else if slack <= ws.tightEps && ws.hasFlow(a) {
				ws.enterCut(a, -1)
			}
		}
	}
	if afterRepair != nil {
		afterRepair(ws)
	}
}

// sinkSearch looks for a residual tight path from start to the sink
// strictly outside R. Paths that re-enter R are dead ends — R is closed
// under residual reachability, so nothing inside it leads to the sink —
// and sink-side potentials all sit on the same falling clock, so raw t
// comparisons are consistent throughout.
func (ws *Workspace) sinkSearch(start int32) bool {
	ws.sEpoch++
	ep := ws.sEpoch
	ws.sSeen[start] = ep
	st := ws.dstack[:0]
	st = append(st, start)
	for len(st) > 0 {
		x := st[len(st)-1]
		st = st[:len(st)-1]
		tx := ws.t[x]
		for e := ws.adjOff[x]; e < ws.adjOff[x+1]; e++ {
			enc := ws.adjArc[e]
			a := enc >> 1
			fwd := enc&1 == 0
			var w int32
			var slack float64
			if fwd {
				w = ws.head[a]
				slack = ws.t[w] - tx - ws.dur(a)
			} else {
				w = ws.tail[a]
				slack = tx - ws.t[w] - ws.dur(a)
			}
			if ws.sSeen[w] == ep || ws.inRf(w) || slack > ws.tightEps {
				continue
			}
			if fwd {
				if !ws.fwdOpen(a) {
					continue
				}
			} else if !ws.bwdOpen(a) {
				continue
			}
			ws.sSeen[w] = ep
			ws.sPar[w] = enc
			if int(w) == ws.snk {
				ws.dstack = st
				return true
			}
			st = append(st, w)
		}
	}
	ws.dstack = st
	return false
}

// reopen handles residual capacity opening on a boundary arc whose near
// endpoint u stays in R: it augments straight through the arc — R-tree
// path src->u, the arc itself, then a sink-side search beyond it —
// until the arc re-saturates or the far side is exhausted. Only in the
// latter case does the far component genuinely join R (grow); the
// common breakpoint, where one augmenting path re-saturates the arc and
// the cut barely moves, now costs one path instead of flooding and
// evicting the whole sink side.
func (ws *Workspace) reopen(a int32, fwd bool) (done bool, err error) {
	var u, v int32
	if fwd {
		u, v = ws.tail[a], ws.head[a]
	} else {
		u, v = ws.head[a], ws.tail[a]
	}
	pathOK := false // sink-side sPar path from the previous iteration still usable
	//malsched:bounded every iteration returns or augments one path; augment counts toward the sweep budget (ErrStalled), polled by the event loop
	for {
		if fwd {
			if !ws.fwdOpen(a) {
				ws.enterCut(a, +1)
				return false, nil
			}
		} else if !ws.bwdOpen(a) {
			if ws.hasFlow(a) {
				ws.enterCut(a, -1)
			}
			return false, nil
		}
		if int(v) != ws.snk && !pathOK && !ws.sinkSearch(v) {
			// No augmenting path beyond the arc: the far component is
			// genuinely reachable now and joins R for good.
			if fwd {
				ws.parent[v] = a << 1
			} else {
				ws.parent[v] = a<<1 | 1
			}
			if ws.grow(v) {
				return ws.resolveIncremental()
			}
			return false, nil
		}
		bott := ws.residual(a, fwd)
		for w := int32(ws.snk); w != v; {
			enc := ws.sPar[w]
			aa := enc >> 1
			if enc&1 == 0 {
				if r := ws.residual(aa, true); r < bott {
					bott = r
				}
				w = ws.tail[aa]
			} else {
				if r := ws.residual(aa, false); r < bott {
					bott = r
				}
				w = ws.head[aa]
			}
		}
		for w, k := u, 0; int(w) != ws.src; w, k = ws.pnode(w), k+1 {
			enc := ws.parent[w]
			if enc < 0 || k >= ws.nodes {
				return false, errChain
			}
			if r := ws.residual(enc>>1, enc&1 == 0); r < bott {
				bott = r
			}
		}
		if math.IsInf(bott, 1) {
			return true, nil
		}
		if fwd {
			ws.f[a] += bott
		} else {
			ws.f[a] -= bott
			if ws.f[a] < 0 {
				ws.f[a] = 0
			}
		}
		// The path survives for the next iteration unless this augment
		// saturated one of its own arcs (tree-side bottlenecks leave the
		// sink side untouched, potentials don't move inside reopen).
		pathOK = true
		for w := int32(ws.snk); w != v; {
			enc := ws.sPar[w]
			aa := enc >> 1
			if enc&1 == 0 {
				ws.f[aa] += bott
				if !ws.fwdOpen(aa) {
					pathOK = false
				}
				w = ws.tail[aa]
			} else {
				ws.f[aa] -= bott
				if ws.f[aa] < 0 {
					ws.f[aa] = 0
				}
				if !ws.bwdOpen(aa) {
					pathOK = false
				}
				w = ws.head[aa]
			}
		}
		roots := ws.orphList[:0]
		for w, k := u, 0; int(w) != ws.src; w, k = ws.pnode(w), k+1 {
			enc := ws.parent[w]
			if enc < 0 || k >= ws.nodes {
				return false, errChain
			}
			aa := enc >> 1
			if enc&1 == 0 {
				ws.f[aa] += bott
				if !ws.fwdOpen(aa) {
					roots = append(roots, w)
				}
			} else {
				ws.f[aa] -= bott
				if ws.f[aa] < 0 {
					ws.f[aa] = 0
				}
				if !ws.bwdOpen(aa) {
					roots = append(roots, w)
				}
			}
		}
		ws.orphList = roots
		ws.muv += bott
		ws.Augments++
		if ws.augBudget--; ws.augBudget < 0 {
			return false, fmt.Errorf("%w: augmentation budget exceeded", ErrStalled)
		}
		if len(roots) > 0 {
			ws.processOrphans(roots)
			if !ws.inRf(u) {
				// The repair evicted the boundary node itself; its
				// classify pass already re-filed arc a.
				return false, nil
			}
		}
	}
}

// grow runs the incremental source-side search from start after
// residual capacity opened towards it (the caller records how start was
// reached in parent[start]). It extends the parent tree over every node
// it joins, classifies every arc newly crossing the cut, and returns
// true once the sink joins — the parent chain is then a ready
// augmenting path and the flow must be re-solved.
func (ws *Workspace) grow(start int32) bool {
	q := ws.queue[:0]
	ws.join(start)
	ws.linkChild(ws.pnode(start), start)
	q = append(q, start)
	reached := int(start) == ws.snk
	// The search must drain its whole frontier even after the sink
	// joins: a joined node whose neighbourhood was never scanned would
	// leave reachable nodes outside R and silently undercount the cut.
	// The flow re-solve evicts whatever the new cut separates.
	for qh := 0; qh < len(q); qh++ {
		v := q[qh]
		for e := ws.adjOff[v]; e < ws.adjOff[v+1]; e++ {
			enc := ws.adjArc[e]
			a := enc >> 1
			fwd := enc&1 == 0
			// Crossing status changes: materialise lazy y and kill any
			// pending event. Arcs with neither are untouched — the
			// indexed heap makes "has a pending entry" an O(1) check,
			// and nothing else reads the stamp.
			if ws.cutDir[a] != 0 {
				ws.matArc(a)
			} else if ws.heapPos[a] >= 0 {
				ws.arcStamp[a]++
			}
			var w int32
			if fwd {
				w = ws.head[a]
			} else {
				w = ws.tail[a]
			}
			if ws.inRf(w) {
				continue
			}
			var slack float64
			if fwd {
				slack = ws.tRealOut(w) - ws.t[v] - ws.dur(a)
			} else {
				slack = ws.t[v] - ws.tRealOut(w) - ws.dur(a)
			}
			if slack > ws.tightEps {
				if fwd {
					ws.push(event{ws.lam - slack, a, ws.arcStamp[a], evSlack})
				}
				continue
			}
			if fwd {
				if ws.fwdOpen(a) {
					ws.parent[w] = enc
					ws.join(w)
					ws.linkChild(v, w)
					if int(w) == ws.snk {
						reached = true
					}
					q = append(q, w)
				} else {
					ws.enterCut(a, +1)
				}
			} else {
				if ws.bwdOpen(a) {
					ws.parent[w] = enc
					ws.join(w)
					ws.linkChild(v, w)
					if int(w) == ws.snk {
						reached = true
					}
					q = append(q, w)
				} else if ws.hasFlow(a) {
					ws.enterCut(a, -1)
				}
			}
		}
	}
	ws.queue = q[:0]
	return reached
}

// Sweep runs the parametric sweep on the built network. m is the
// machine count of the caller's stopping line and phi0 the crashing
// cost at y=0 (the work floor): the sweep stops at the crossing of
// m*lambda with phi0 + phi(lambda), or at the fully-crashed project
// length if the crossing is unreachable, and returns
// C = max(Lambda, Phi/m) — the optimum of min max(lambda, phi/m).
func (ws *Workspace) Sweep(src, snk int, m, phi0 float64) (float64, error) {
	nA := len(ws.tail)
	ws.y = grown(ws.y, nA)
	ws.f = grown(ws.f, nA)
	ws.kcur = grown(ws.kcur, nA)
	ws.cutDir = grown(ws.cutDir, nA)
	ws.lamEnter = grown(ws.lamEnter, nA)
	ws.arcStamp = grown(ws.arcStamp, nA)
	ws.sU = grown(ws.sU, nA)
	ws.sD = grown(ws.sD, nA)
	// The piece tolerance is this network's: refreshSig below classifies
	// pieces with it, so it is set before the first call (a tolerance
	// left over from the previous sweep on this workspace would make the
	// answer depend on that sweep).
	maxCum := 0.0
	for a := 0; a < nA; a++ {
		if e := ws.curveOff[a+1]; e > ws.curveOff[a] {
			if c := ws.cum[e-1]; c > maxCum {
				maxCum = c
			}
		}
	}
	ws.bEps = 1e-12 * (1 + maxCum)
	for a := 0; a < nA; a++ {
		ws.y[a] = 0
		ws.f[a] = 0
		ws.kcur[a] = ws.curveOff[a]
		ws.cutDir[a] = 0
		ws.arcStamp[a] = 0
		ws.refreshSig(int32(a))
	}
	ws.inR = grown(ws.inR, ws.nodes)
	ws.firstKid = grown(ws.firstKid, ws.nodes)
	ws.nextSib = grown(ws.nextSib, ws.nodes)
	ws.prevSib = grown(ws.prevSib, ws.nodes)
	ws.orph = grown(ws.orph, ws.nodes)
	for v := range ws.inR {
		ws.inR[v] = -1
		ws.orph[v] = 0
	}
	ws.orphEpoch = 0
	ws.rEpoch = 0
	ws.parent = grown(ws.parent, ws.nodes)
	ws.sPar = grown(ws.sPar, ws.nodes)
	ws.sSeen = grown(ws.sSeen, ws.nodes)
	for v := range ws.sSeen {
		ws.sSeen[v] = 0
	}
	ws.sEpoch = 0
	ws.heap = ws.heap[:0]
	ws.heapPos = grown(ws.heapPos, nA)
	for a := range ws.heapPos {
		ws.heapPos[a] = -1
	}
	ws.src, ws.snk, ws.msw = src, snk, m
	ws.buildAdj()
	if err := ws.longestPaths(); err != nil {
		return 0, err
	}

	ws.lam = ws.t[snk]
	ws.lamMat = ws.lam
	ws.phi = phi0
	ws.muv = 0
	ws.Breakpoints, ws.Augments = 0, 0

	ws.tightEps = 1e-9 * (1 + math.Abs(ws.lam))
	// A breakpoint costs about one augmenting path, and a deep network
	// meets a breakpoint at nearly every crashing piece (a 400-task chain
	// at m=64 augments ~14k times on 801 arcs), so both budgets scale
	// with the pieces as well as the arcs.
	ws.evBudget = 64*(len(ws.rate)+nA) + 1024
	ws.augBudget = 16*(len(ws.rate)+nA) + 1024

	if FaultSweep != nil && FaultSweep() {
		return 0, fmt.Errorf("%w: injected fault", ErrStalled)
	}

	// Work-bound from the start: the stopping line sits at or above the
	// uncrashed critical path, nothing to crash.
	if ws.phi >= m*ws.lam {
		ws.Lambda, ws.Phi = ws.lam, ws.phi
		return ws.phi / m, nil
	}

	if done, err := ws.rebuildFull(); err != nil {
		return 0, err
	} else if done {
		ws.Lambda, ws.Phi = ws.lam, ws.phi
		return math.Max(ws.lam, ws.phi/m), nil
	}

	for {
		if ws.Cancel.Canceled() {
			return 0, cancelflag.ErrCanceled
		}
		if FaultSweep != nil && FaultSweep() {
			return 0, fmt.Errorf("%w: injected fault", ErrStalled)
		}
		lamCross := (ws.phi + ws.muv*ws.lam) / (m + ws.muv)
		if math.IsInf(lamCross, 0) || math.IsNaN(lamCross) {
			// phi + muv·lam overflows at huge times; split the weighted
			// mean (every finite crossing keeps the first form's rounding).
			lamCross = ws.phi/(m+ws.muv) + ws.lam*(ws.muv/(m+ws.muv))
		}
		e, ok := ws.popValid()
		if !ok || lamCross >= e.lam {
			ws.advance(lamCross)
			ws.matAll()
			ws.Lambda, ws.Phi = ws.lam, ws.phi
			return math.Max(ws.lam, ws.phi/m), nil
		}
		ws.advance(e.lam)
		ws.Breakpoints++
		if ws.evBudget--; ws.evBudget < 0 {
			return 0, fmt.Errorf("%w: event budget exceeded", ErrStalled)
		}

		a := e.arc
		var opened, fdir bool
		switch e.kind {
		case evSlack:
			// The arc just went critical (f=0 on a previously slack
			// arc): residual sigma+ opens unless the piece above is
			// flat at zero rate.
			ws.arcStamp[a]++
			if ws.fwdOpen(a) {
				opened, fdir = true, true
			} else {
				ws.enterCut(a, +1)
			}
		case evFwdPiece:
			// A crashing cut arc hit the top of its piece: the next
			// piece's higher rate opens residual unless rates are
			// within tolerance; a fully crashed arc opens infinite
			// residual (it leaves the cut for good).
			ws.matArc(a)
			if ws.fwdOpen(a) {
				opened, fdir = true, true
			} else {
				ws.enterCut(a, +1)
			}
		case evBwdPiece:
			// An un-crashing cut arc hit the bottom of its piece: the
			// flow now exceeds the lower piece's rate, opening reverse
			// residual towards its tail.
			ws.matArc(a)
			if ws.bwdOpen(a) {
				opened, fdir = true, false
			} else if ws.hasFlow(a) {
				ws.enterCut(a, -1)
			}
		}
		if opened {
			if done, err := ws.reopen(a, fdir); err != nil {
				return 0, err
			} else if done {
				ws.matAll()
				ws.Lambda, ws.Phi = ws.lam, ws.phi
				return math.Max(ws.lam, ws.phi/m), nil
			}
		}
	}
}

// snapY sets arc a's crash amount, snapped onto an adjacent piece
// boundary when within tolerance so the piece cursors advance cleanly.
func (ws *Workspace) snapY(a int32, y float64) {
	if y < 0 {
		y = 0
	}
	s, e := ws.curveOff[a], ws.curveOff[a+1]
	if e > s {
		if ymax := ws.cum[e-1]; y > ymax {
			y = ymax
		}
		k := ws.kcur[a]
		if k < s {
			k = s
		} else if k >= e {
			k = e - 1
		}
		for _, b := range []int32{k - 1, k, k + 1} {
			if b >= s && b < e && math.Abs(y-ws.cum[b]) <= ws.bEps {
				y = ws.cum[b]
				break
			}
		}
	}
	ws.y[a] = y
	ws.refreshSig(a)
}
