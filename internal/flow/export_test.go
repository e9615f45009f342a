package flow

import "fmt"

// WatchRepairs installs fn to run after every change of any sweep's R
// tree — a failed sink search's region joining (joined) or a repair
// after an augmentation — and returns a function that removes it again.
func WatchRepairs(fn func(ws *Workspace, joined bool)) (restore func()) {
	afterRepair = fn
	return func() { afterRepair = nil }
}

// CheckTree audits the R tree of a sweep in progress: every source-side
// node but the source hangs under a tight arc with residual open towards
// it from a source-side parent (what makes it reachable), every parent
// chain reaches the source within the node count, and the child lists
// hold exactly the source-side nodes, each under its parent, with
// consistent sibling links.
func CheckTree(ws *Workspace) error {
	n := ws.nodes
	inR := 0
	for v := int32(0); int(v) < n; v++ {
		if !ws.inR[v] {
			continue
		}
		inR++
		if enc := ws.parent[v]; int(v) != ws.src && enc >= 0 {
			switch {
			case ws.far(enc) != v:
				return fmt.Errorf("parent arc %d of node %d does not end there", enc>>1, v)
			case !ws.tight(enc>>1) || !ws.open(enc):
				return fmt.Errorf("parent arc %d of node %d is not residual tight", enc>>1, v)
			}
		}
		w := v
		for k := 0; int(w) != ws.src; k++ {
			if k >= n {
				return fmt.Errorf("node %d: parent chain does not reach the source", v)
			}
			if ws.parent[w] < 0 {
				return fmt.Errorf("node %d: chain reaches node %d, which has no parent", v, w)
			}
			if w = ws.pnode(w); !ws.inR[w] {
				return fmt.Errorf("node %d: chain leaves the source side at node %d", v, w)
			}
		}
	}
	kids := 0
	for p := int32(0); int(p) < n; p++ {
		if !ws.inR[p] {
			if c := ws.firstKid[p]; c >= 0 {
				return fmt.Errorf("sink-side node %d keeps child %d", p, c)
			}
			continue
		}
		prev := int32(-1)
		for c := ws.firstKid[p]; c >= 0; c = ws.nextSib[c] {
			if kids++; kids > n {
				return fmt.Errorf("child lists hold a cycle")
			}
			if ws.prevSib[c] != prev {
				return fmt.Errorf("node %d: prevSib %d, want %d", c, ws.prevSib[c], prev)
			}
			if !ws.inR[c] || ws.parent[c] < 0 || ws.pnode(c) != p {
				return fmt.Errorf("node %d listed under %d but its parent disagrees", c, p)
			}
			prev = c
		}
	}
	if kids != inR-1 {
		return fmt.Errorf("child lists hold %d nodes, source side has %d besides the source", kids, inR-1)
	}
	return nil
}

// WatchPaths audits every path a sink search hands to reopen with
// checkPath, reporting each result to fn, and returns a function that
// removes the audit again.
func WatchPaths(fn func(along, broke bool, err error)) (restore func()) {
	afterSearch = func(ws *Workspace, start int32) { fn(checkPath(ws, start)) }
	return func() { afterSearch = nil }
}

// checkPath audits the path a sink search just found from start, walking
// it back from the sink along sPar: every step is tight and open in its
// direction, both its ends lie outside R, no node appears twice, and the
// walk ends at start. It also compares the path with the memory it was
// found with: along reports that every step is its near node's
// remembered arc; broke that the path starts along start's memory and
// then leaves it at a node that remembers another arc.
func checkPath(ws *Workspace, start int32) (along, broke bool, err error) {
	seen := map[int32]bool{int32(ws.snk): true}
	var steps []int32 // adjacency encodings, from the sink back to start
	for w := int32(ws.snk); w != start; {
		if len(steps) >= ws.nodes {
			return false, false, fmt.Errorf("path from %d: no start within %d steps of the sink", start, ws.nodes)
		}
		enc := ws.sPar[w]
		a := enc >> 1
		near, far := ws.far(enc^1), ws.far(enc)
		switch {
		case far != w:
			return false, false, fmt.Errorf("path from %d: node %d's step is arc %d, which does not end there", start, w, a)
		case ws.inR[near] || ws.inR[far]:
			return false, false, fmt.Errorf("path from %d: arc %d touches the source side", start, a)
		case !ws.tight(a):
			return false, false, fmt.Errorf("path from %d: arc %d is slack", start, a)
		case !ws.open(enc):
			return false, false, fmt.Errorf("path from %d: arc %d has no residual in the path's direction", start, a)
		case seen[near]:
			return false, false, fmt.Errorf("path from %d: node %d appears twice", start, near)
		}
		seen[near] = true
		steps = append(steps, enc)
		w = near
	}
	along = true
	left := false // the path has left the memory
	w := start
	for i := len(steps) - 1; i >= 0; i-- {
		enc := steps[i]
		if enc != ws.sNext[w] {
			along = false
			if !left && i < len(steps)-1 && ws.sNext[w] >= 0 {
				broke = true
			}
			left = true
		}
		w = ws.far(enc)
	}
	return along, broke, nil
}

// CorruptSiblings closes a cycle in one child list of a sweep in
// progress: among the source-side nodes with children it takes the one
// deepest in the R tree, whose subtree the next repairs most likely
// detach, and makes its first child the next sibling of its last. It
// reports whether any node had children.
func CorruptSiblings(ws *Workspace) bool {
	deepest, depth := int32(-1), -1
	for p := int32(0); int(p) < ws.nodes; p++ {
		if !ws.inR[p] || ws.firstKid[p] < 0 {
			continue
		}
		d := 0
		for w := p; int(w) != ws.src && d < ws.nodes; w = ws.pnode(w) {
			d++
		}
		if d > depth {
			deepest, depth = p, d
		}
	}
	if deepest < 0 {
		return false
	}
	last := ws.firstKid[deepest]
	for ws.nextSib[last] >= 0 {
		last = ws.nextSib[last]
	}
	ws.nextSib[last] = ws.firstKid[deepest]
	return true
}
