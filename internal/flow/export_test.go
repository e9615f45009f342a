package flow

import "fmt"

// WatchRepairs installs fn to run after every R-tree repair of any sweep
// and returns a function that removes it again.
func WatchRepairs(fn func(ws *Workspace)) (restore func()) {
	afterRepair = fn
	return func() { afterRepair = nil }
}

// CheckTree audits the R tree of a sweep in progress: every source-side
// node but the source has a source-side parent, every parent chain
// reaches the source within the node count, and the child lists hold
// exactly the source-side nodes, each under its parent, with consistent
// sibling links.
func CheckTree(ws *Workspace) error {
	n := ws.nodes
	inR := 0
	for v := int32(0); int(v) < n; v++ {
		if !ws.inRf(v) {
			continue
		}
		inR++
		w := v
		for k := 0; int(w) != ws.src; k++ {
			if k >= n {
				return fmt.Errorf("node %d: parent chain does not reach the source", v)
			}
			if ws.parent[w] < 0 {
				return fmt.Errorf("node %d: chain reaches node %d, which has no parent", v, w)
			}
			if w = ws.pnode(w); !ws.inRf(w) {
				return fmt.Errorf("node %d: chain leaves the source side at node %d", v, w)
			}
		}
	}
	kids := 0
	for p := int32(0); int(p) < n; p++ {
		if !ws.inRf(p) {
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
			if !ws.inRf(c) || ws.parent[c] < 0 || ws.pnode(c) != p {
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
