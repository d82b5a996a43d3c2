package table4

import (
	"math"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/ir"
)

// Parameters of bh.ace's kernel function, in order.
const (
	bhIdx = iota // region of all body ids
	bhScr        // local scratch: 4*n floats (pos3+mass snapshot)
	bhN
	bhLo
	bhHi
	bhSteps
	bhNumParams
)

// Body slots: px py pz vx vy vz mass.

func setupBH(p *core.Proc, spaces map[int]*core.Space, cfg Config) []ir.Value {
	local, data := spaces[SpLocal], spaces[SpData]
	ids := allocAll(p, data, cfg.N, 7*8)
	lo, hi := blockRange(cfg.N, p.Procs(), p.ID())
	for i := lo; i < hi; i++ {
		rng := apputil.RNG(17, int64(i))
		r := p.Map(ids[i])
		p.StartWrite(r)
		for d := 0; d < 3; d++ {
			r.Data.SetFloat64(d, rng.Float64()*2-1)
			r.Data.SetFloat64(3+d, (rng.Float64()*2-1)*0.1)
		}
		r.Data.SetFloat64(6, 0.5+rng.Float64())
		p.EndWrite(r)
		p.Unmap(r)
	}
	idx := idIndexRegion(p, local, ids)
	scr := p.GMalloc(local, cfg.N*4*8)
	p.GlobalBarrier()
	return []ir.Value{
		ir.Region(idx), ir.Region(scr),
		ir.Int(int64(cfg.N)), ir.Int(int64(lo)), ir.Int(int64(hi)), ir.Int(int64(cfg.Steps)),
	}
}

// handBH is the hand-optimized version: one mapped handle per body, one
// read section for the four snapshot loads, one write section for the six
// state stores.
func handBH(p *core.Proc, spaces map[int]*core.Space, cfg Config, args []ir.Value) float64 {
	data := spaces[SpData]
	n := int(args[bhN].I)
	lo, hi := int(args[bhLo].I), int(args[bhHi].I)
	steps := int(args[bhSteps].I)

	idx := p.Map(args[bhIdx].R)
	p.StartRead(idx)
	bodies := make([]*core.Region, n)
	for i := 0; i < n; i++ {
		bodies[i] = p.Map(idx.Data.RegionID(i))
	}
	p.EndRead(idx)

	scr := make([]float64, n*4)
	for t := 0; t < steps; t++ {
		for i := 0; i < n; i++ {
			r := bodies[i]
			p.StartRead(r)
			scr[i*4] = r.Data.Float64(0)
			scr[i*4+1] = r.Data.Float64(1)
			scr[i*4+2] = r.Data.Float64(2)
			scr[i*4+3] = r.Data.Float64(6)
			p.EndRead(r)
		}
		p.Barrier(data)
		for j := lo; j < hi; j++ {
			xj, yj, zj := scr[j*4], scr[j*4+1], scr[j*4+2]
			var ax, ay, az float64
			for o := 0; o < n; o++ {
				if o == j {
					continue
				}
				dx := scr[o*4] - xj
				dy := scr[o*4+1] - yj
				dz := scr[o*4+2] - zj
				r2 := dx*dx + dy*dy + (dz*dz + 0.25)
				r := math.Sqrt(r2)
				inv := scr[o*4+3] / (r2 * r)
				ax += dx * inv
				ay += dy * inv
				az += dz * inv
			}
			body := bodies[j]
			p.StartWrite(body)
			d := body.Data
			const dt = 0.025
			nvx := d.Float64(3) + ax*dt
			nvy := d.Float64(4) + ay*dt
			nvz := d.Float64(5) + az*dt
			d.SetFloat64(0, xj+nvx*dt)
			d.SetFloat64(1, yj+nvy*dt)
			d.SetFloat64(2, zj+nvz*dt)
			d.SetFloat64(3, nvx)
			d.SetFloat64(4, nvy)
			d.SetFloat64(5, nvz)
			p.EndWrite(body)
		}
		p.Barrier(data)
	}
	sum := 0.0
	for i := lo; i < hi; i++ {
		r := bodies[i]
		p.StartRead(r)
		sum += r.Data.Float64(0) + r.Data.Float64(1) + r.Data.Float64(2)
		p.EndRead(r)
	}
	return sum
}
