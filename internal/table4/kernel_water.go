package table4

import (
	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/ir"
)

// Parameters of water.ace's kernel function, in order.
const (
	waIdx = iota // region of all molecule ids
	waScr        // local scratch: 3*n floats (positions)
	waDel        // local deltas: 3*n floats
	waN
	waLo
	waHi
	waSteps
	waNumParams
)

// Molecule slots: px py pz fx fy fz.

func setupWater(p *core.Proc, spaces map[int]*core.Space, cfg Config) []ir.Value {
	local, data := spaces[SpLocal], spaces[SpData]
	ids := allocAll(p, data, cfg.N, 6*8)
	lo, hi := blockRange(cfg.N, p.Procs(), p.ID())
	for i := lo; i < hi; i++ {
		rng := apputil.RNG(5, int64(i))
		r := p.Map(ids[i])
		p.StartWrite(r)
		for d := 0; d < 3; d++ {
			r.Data.SetFloat64(d, rng.Float64()*4-2)
			r.Data.SetFloat64(3+d, 0)
		}
		p.EndWrite(r)
		p.Unmap(r)
	}
	idx := idIndexRegion(p, local, ids)
	scr := p.GMalloc(local, cfg.N*3*8)
	del := p.GMalloc(local, cfg.N*3*8)
	p.GlobalBarrier()
	return []ir.Value{
		ir.Region(idx), ir.Region(scr), ir.Region(del),
		ir.Int(int64(cfg.N)), ir.Int(int64(lo)), ir.Int(int64(hi)), ir.Int(int64(cfg.Steps)),
	}
}

// handWater is the hand-optimized version: host arrays for the snapshot
// and deltas, one read section per molecule snapshot, one write section
// per force ship.
func handWater(p *core.Proc, spaces map[int]*core.Space, cfg Config, args []ir.Value) float64 {
	data := spaces[SpData]
	n := int(args[waN].I)
	lo, hi := int(args[waLo].I), int(args[waHi].I)
	steps := int(args[waSteps].I)

	idx := p.Map(args[waIdx].R)
	p.StartRead(idx)
	mols := make([]*core.Region, n)
	for i := 0; i < n; i++ {
		mols[i] = p.Map(idx.Data.RegionID(i))
	}
	p.EndRead(idx)

	scr := make([]float64, n*3)
	del := make([]float64, n*3)
	for t := 0; t < steps; t++ {
		for i := 0; i < n; i++ {
			r := mols[i]
			p.StartRead(r)
			scr[i*3] = r.Data.Float64(0)
			scr[i*3+1] = r.Data.Float64(1)
			scr[i*3+2] = r.Data.Float64(2)
			p.EndRead(r)
		}
		for i := range del {
			del[i] = 0
		}
		for i := lo; i < hi; i++ {
			for j := i + 1; j < n; j++ {
				dx := scr[j*3] - scr[i*3]
				dy := scr[j*3+1] - scr[i*3+1]
				dz := scr[j*3+2] - scr[i*3+2]
				r2 := dx*dx + dy*dy + (dz*dz + 0.25)
				inv := 1 / (r2 * r2)
				for d, c := range [3]float64{dx * inv, dy * inv, dz * inv} {
					del[i*3+d] += c
					del[j*3+d] -= c
				}
			}
		}
		for i := 0; i < n; i++ {
			r := mols[i]
			p.StartWrite(r)
			r.Data.SetFloat64(3, del[i*3])
			r.Data.SetFloat64(4, del[i*3+1])
			r.Data.SetFloat64(5, del[i*3+2])
			p.EndWrite(r)
		}
		p.Barrier(data)
	}
	sum := 0.0
	for i := lo; i < hi; i++ {
		r := mols[i]
		p.StartRead(r)
		part := r.Data.Float64(3) + (r.Data.Float64(4)*2 + r.Data.Float64(5)*3)
		sum += float64(i+1) * part
		p.EndRead(r)
	}
	return sum
}
