package table4

import (
	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/ir"
)

// Parameters of em3d.ace's kernel function, in order.
const (
	emEIdx = iota // region of my E node ids
	emEAdj        // region of H neighbor ids (myN*degree)
	emEWts        // E weights
	emHIdx
	emHAdj // region of E neighbor ids
	emHWts
	emMyN
	emDegree
	emSteps
	emNumParams
)

// em3dNeighbors returns, for each node this processor owns in one class,
// the global indices and weights of its neighbors in the other class
// (deterministic from the class tag).
func em3dNeighbors(cfg Config, procs, me int, class int64) (targets [][]int, weights [][]float64) {
	lo, hi := blockRange(cfg.N, procs, me)
	for i := lo; i < hi; i++ {
		rng := apputil.RNG(77, class*int64(cfg.N)+int64(i))
		var ts []int
		var ws []float64
		for d := 0; d < cfg.Degree; d++ {
			var target int
			if rng.Intn(100) < 20 && procs > 1 {
				for {
					target = rng.Intn(cfg.N)
					if apputil.Owner(cfg.N, procs, target) != me {
						break
					}
				}
			} else {
				target = lo + rng.Intn(hi-lo)
			}
			ts = append(ts, target)
			ws = append(ws, rng.Float64())
		}
		targets = append(targets, ts)
		weights = append(weights, ws)
	}
	return targets, weights
}

func setupEM3D(p *core.Proc, spaces map[int]*core.Space, cfg Config) []ir.Value {
	local := spaces[SpLocal]
	args := make([]ir.Value, emNumParams)
	lo, hi := blockRange(cfg.N, p.Procs(), p.ID())
	myN := hi - lo

	setupClass := func(sp *core.Space, class int64, initOffset float64) (ids []core.RegionID, idx, adjID, wtsID core.RegionID) {
		ids = allocAll(p, sp, cfg.N, 8)
		for i := lo; i < hi; i++ {
			r := p.Map(ids[i])
			p.StartWrite(r)
			r.Data.SetFloat64(0, initOffset+float64(i)/float64(cfg.N))
			p.EndWrite(r)
			p.Unmap(r)
		}
		idx = idIndexRegion(p, local, ids[lo:hi])
		adjID = p.GMalloc(local, myN*cfg.Degree*8)
		wtsID = p.GMalloc(local, myN*cfg.Degree*8)
		return ids, idx, adjID, wtsID
	}
	eIDs, eIdx, eAdj, eWts := setupClass(spaces[SpData], 0, 0)
	hIDs, hIdx, hAdj, hWts := setupClass(spaces[SpAux], 1, 1)

	fillAdj := func(adjID, wtsID core.RegionID, class int64, other []core.RegionID) {
		targets, weights := em3dNeighbors(cfg, p.Procs(), p.ID(), class)
		adj, wts := p.Map(adjID), p.Map(wtsID)
		p.StartWrite(adj)
		p.StartWrite(wts)
		for i := 0; i < myN; i++ {
			for d := 0; d < cfg.Degree; d++ {
				adj.Data.SetRegionID(i*cfg.Degree+d, other[targets[i][d]])
				wts.Data.SetFloat64(i*cfg.Degree+d, weights[i][d])
			}
		}
		p.EndWrite(wts)
		p.EndWrite(adj)
		p.Unmap(adj)
		p.Unmap(wts)
	}
	fillAdj(eAdj, eWts, 0, hIDs) // E reads H neighbors
	fillAdj(hAdj, hWts, 1, eIDs) // H reads E neighbors
	p.GlobalBarrier()

	args[emEIdx], args[emEAdj], args[emEWts] = ir.Region(eIdx), ir.Region(eAdj), ir.Region(eWts)
	args[emHIdx], args[emHAdj], args[emHWts] = ir.Region(hIdx), ir.Region(hAdj), ir.Region(hWts)
	args[emMyN], args[emDegree], args[emSteps] = ir.Int(int64(myN)), ir.Int(int64(cfg.Degree)), ir.Int(int64(cfg.Steps))
	return args
}

// handEM3D is the hand-optimized runtime version: maps performed once
// before the computation loop, local data cached in host arrays, one read
// section per remote value access and one write section per node — the
// code Section 5.3 says an experienced programmer writes.
func handEM3D(p *core.Proc, spaces map[int]*core.Space, cfg Config, args []ir.Value) float64 {
	myN := int(args[emMyN].I)
	degree := int(args[emDegree].I)
	steps := int(args[emSteps].I)

	load := func(idxArg, adjArg, wtsArg int) (nodes, nbs []*core.Region, weights []float64) {
		idx := p.Map(args[idxArg].R)
		adj := p.Map(args[adjArg].R)
		wts := p.Map(args[wtsArg].R)
		p.StartRead(idx)
		p.StartRead(adj)
		p.StartRead(wts)
		nodes = make([]*core.Region, myN)
		nbs = make([]*core.Region, myN*degree)
		weights = make([]float64, myN*degree)
		for i := 0; i < myN; i++ {
			nodes[i] = p.Map(idx.Data.RegionID(i))
			for d := 0; d < degree; d++ {
				k := i*degree + d
				nbs[k] = p.Map(adj.Data.RegionID(k))
				weights[k] = wts.Data.Float64(k)
			}
		}
		p.EndRead(wts)
		p.EndRead(adj)
		p.EndRead(idx)
		return nodes, nbs, weights
	}
	eNodes, eNbs, eW := load(emEIdx, emEAdj, emEWts)
	hNodes, hNbs, hW := load(emHIdx, emHAdj, emHWts)

	phase := func(nodes, nbs []*core.Region, weights []float64) {
		for i := 0; i < myN; i++ {
			acc := 0.0
			for d := 0; d < degree; d++ {
				k := i*degree + d
				nb := nbs[k]
				p.StartRead(nb)
				acc += weights[k] * nb.Data.Float64(0)
				p.EndRead(nb)
			}
			p.StartWrite(nodes[i])
			nodes[i].Data.SetFloat64(0, acc)
			p.EndWrite(nodes[i])
		}
	}
	for t := 0; t < steps; t++ {
		phase(eNodes, eNbs, eW)
		p.Barrier(spaces[SpData])
		phase(hNodes, hNbs, hW)
		p.Barrier(spaces[SpAux])
	}
	sum := 0.0
	for _, nodes := range [][]*core.Region{eNodes, hNodes} {
		for i := 0; i < myN; i++ {
			p.StartRead(nodes[i])
			sum += nodes[i].Data.Float64(0)
			p.EndRead(nodes[i])
		}
	}
	return sum
}
