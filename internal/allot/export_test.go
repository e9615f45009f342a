package allot

import (
	"fmt"

	"malsched/internal/malleable"
)

// SolveLPMincutUncontracted solves LP (9) by the sweep on the network
// without the merge solveLPMincut makes: every task has a start node of
// its own, fed by a rigid zero-length arc from S or from each
// predecessor's end. It is the oracle the merged network is checked
// against.
func SolveLPMincutUncontracted(in *Instance, ws *Workspace) (*Fractional, error) {
	return solveLPMincutUncontracted(in, ws, ws.frontiers(in))
}

func solveLPMincutUncontracted(in *Instance, ws *Workspace, fronts []malleable.Frontier) (*Fractional, error) {
	n := in.G.N()
	fw := &ws.Flow
	fw.Cancel = ws.LP.Cancel
	fw.Reset(2*n + 2)
	const src, snk = 0, 1
	taskArc := growInt32(ws.mcArc, n)
	wfloor := 0.0
	for j := 0; j < n; j++ {
		f := &fronts[j]
		wfloor += f.W[0]
		taskArc[j] = int32(fw.Arc(2+2*j, 3+2*j, f.XMax()))
		if f.Segments() >= 1 {
			sigmas := ws.repFill(f)
			for k := range sigmas {
				fw.Piece(sigmas[k], ws.repWidth[k])
			}
		}
		if len(in.G.Preds(j)) == 0 {
			fw.Arc(src, 2+2*j, 0)
		}
		for _, s := range in.G.Succs(j) {
			fw.Arc(3+2*j, 2+2*s, 0)
		}
		if len(in.G.Succs(j)) == 0 {
			fw.Arc(3+2*j, snk, 0)
		}
	}
	ws.mcArc = taskArc

	c, err := fw.Sweep(src, snk, float64(in.M), wfloor)
	if err != nil {
		return nil, fmt.Errorf("allot: LP (9) mincut formulation failed: %w", err)
	}

	out := &Fractional{
		X:           make([]float64, n),
		Wbar:        make([]float64, n),
		LStar:       make([]float64, n),
		C:           c,
		L:           fw.Lambda,
		Formulation: FormulationMincut,
		Cuts:        fw.Breakpoints,
		Rounds:      fw.Augments,
	}
	for j := 0; j < n; j++ {
		f := &fronts[j]
		out.X[j] = clamp(f.XMax()-fw.Y(int(taskArc[j])), f.XMin(), f.XMax())
		out.Wbar[j] = f.WorkAt(out.X[j])
		out.W += out.Wbar[j]
		out.LStar[j] = f.FractionalAlloc(out.X[j])
	}
	return out, nil
}

// Fits reports whether snap can start the lazy solve of in.
func (snap *LPSnapshot) Fits(in *Instance) bool { return snap.fits(in, in.Frontiers()) }
