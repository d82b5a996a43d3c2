package table4

import (
	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/ir"
)

// Parameters of tsp.ace's kernel function, in order.
const (
	tsDist = iota // local region: cities*cities int64 distances
	tsCounter
	tsBest
	tsCities
	tsJobs
	tsLo
	tsHi
	tsNumParams
)

func setupTSP(p *core.Proc, spaces map[int]*core.Space, cfg Config) []ir.Value {
	local, data, aux := spaces[SpLocal], spaces[SpData], spaces[SpAux]
	n := cfg.Cities
	dist := p.GMalloc(local, n*n*8)
	r := p.Map(dist)
	p.StartWrite(r)
	rng := apputil.RNG(7, 0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := int64(rng.Intn(99) + 1)
			r.Data.SetInt64(i*n+j, v)
			r.Data.SetInt64(j*n+i, v)
		}
	}
	p.EndWrite(r)
	p.Unmap(r)

	var counterID, bestID core.RegionID
	if p.ID() == 0 {
		counterID = p.GMalloc(data, 8)
		bestID = p.GMalloc(aux, 8)
		br := p.Map(bestID)
		p.StartWrite(br)
		br.Data.SetInt64(0, 1000)
		p.EndWrite(br)
		p.Unmap(br)
	}
	counterID = p.BroadcastID(0, counterID)
	bestID = p.BroadcastID(0, bestID)
	lo, hi := blockRange(cfg.Jobs, p.Procs(), p.ID())
	p.GlobalBarrier()
	return []ir.Value{
		ir.Region(dist), ir.Region(counterID), ir.Region(bestID),
		ir.Int(int64(n)), ir.Int(int64(cfg.Jobs)), ir.Int(int64(lo)), ir.Int(int64(hi)),
	}
}

// handTSP is the hand-optimized version: the distance matrix cached in a
// host array up front, counter and bound accesses exactly as required.
func handTSP(p *core.Proc, spaces map[int]*core.Space, cfg Config, args []ir.Value) float64 {
	n := int(args[tsCities].I)
	lo, hi := int(args[tsLo].I), int(args[tsHi].I)

	distR := p.Map(args[tsDist].R)
	p.StartRead(distR)
	dist := make([]int64, n*n)
	for i := range dist {
		dist[i] = distR.Data.Int64(i)
	}
	p.EndRead(distR)
	counter := p.Map(args[tsCounter].R)
	best := p.Map(args[tsBest].R)

	total := int64(0)
	for jj := lo; jj < hi; jj++ {
		p.StartWrite(counter)
		counter.Data.SetInt64(0, counter.Data.Int64(0)+1)
		p.EndWrite(counter)
		p.StartRead(best)
		bound := best.Data.Int64(0)
		p.EndRead(best)
		acc := int64(0)
		for a := 0; a < n; a++ {
			for c := 0; c < n; c++ {
				acc += dist[a*n+c] + dist[c*n+a]
			}
		}
		total += acc + int64(jj)*bound
	}
	return float64(total)
}
