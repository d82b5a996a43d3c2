package table4

import (
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/ir"
)

// Parameters of bsc.ace's kernel function, in order.
const (
	bcCols = iota // region of B column ids
	bcB
	bcBS
	bcBand
	bcMe
	bcProcs
	bcN
	bcNumParams
)

func setupBSC(p *core.Proc, spaces map[int]*core.Space, cfg Config) []ir.Value {
	local, data := spaces[SpLocal], spaces[SpData]
	B, bs := cfg.Blocks, cfg.BlockSize
	n := B * bs
	ids := make([]core.RegionID, B)
	var mine []core.RegionID
	for k := 0; k < B; k++ {
		if k%p.Procs() == p.ID() {
			id := p.GMalloc(data, (n-k*bs)*bs*8)
			r := p.Map(id)
			p.StartWrite(r)
			for s := 0; s < (n-k*bs)*bs; s++ {
				r.Data.SetFloat64(s, float64((k*131+s*17)%97)/97.0)
			}
			p.EndWrite(r)
			p.Unmap(r)
			mine = append(mine, id)
		}
	}
	for root := 0; root < p.Procs(); root++ {
		var cnt int
		for k := 0; k < B; k++ {
			if k%p.Procs() == root {
				cnt++
			}
		}
		var got []core.RegionID
		if root == p.ID() {
			got = p.BroadcastIDs(root, mine)
		} else {
			got = p.BroadcastIDs(root, make([]core.RegionID, cnt))
		}
		i := 0
		for k := 0; k < B; k++ {
			if k%p.Procs() == root {
				ids[k] = got[i]
				i++
			}
		}
	}
	cols := idIndexRegion(p, local, ids)
	p.GlobalBarrier()
	return []ir.Value{
		ir.Region(cols),
		ir.Int(int64(B)), ir.Int(int64(bs)), ir.Int(int64(cfg.Band)),
		ir.Int(int64(p.ID())), ir.Int(int64(p.Procs())), ir.Int(int64(n)),
	}
}

// handBSC is the hand-optimized version: one map and one section per
// column per step, element loops running inside.
func handBSC(p *core.Proc, spaces map[int]*core.Space, cfg Config, args []ir.Value) float64 {
	data := spaces[SpData]
	B := int(args[bcB].I)
	bs := int(args[bcBS].I)
	band := int(args[bcBand].I)
	me := int(args[bcMe].I)
	procs := int(args[bcProcs].I)
	n := int(args[bcN].I)

	colsIdx := p.Map(args[bcCols].R)
	p.StartRead(colsIdx)
	cols := make([]*core.Region, B)
	for k := 0; k < B; k++ {
		cols[k] = p.Map(colsIdx.Data.RegionID(k))
	}
	p.EndRead(colsIdx)

	for k := 0; k < B; k++ {
		rows := n - k*bs
		if k%procs == me {
			col := cols[k]
			p.StartWrite(col)
			for c := 0; c < bs; c++ {
				for r := 0; r < rows; r++ {
					slot := c*rows + r
					col.Data.SetFloat64(slot, col.Data.Float64(slot)*0.97+0.5)
				}
			}
			p.EndWrite(col)
		}
		p.Barrier(data)
		last := min(B, k+band+1)
		for j := k + 1; j < last; j++ {
			if j%procs != me {
				continue
			}
			colK, colJ := cols[k], cols[j]
			rowsJ := n - j*bs
			off := (j - k) * bs
			p.StartRead(colK)
			p.StartWrite(colJ)
			for c := 0; c < bs; c++ {
				lkc := colK.Data.Float64(off + c)
				for r := 0; r < rowsJ; r++ {
					lkr := colK.Data.Float64(off + r)
					slot := c*rowsJ + r
					colJ.Data.SetFloat64(slot, colJ.Data.Float64(slot)-lkc*lkr*0.001)
				}
			}
			p.EndWrite(colJ)
			p.EndRead(colK)
		}
		p.Barrier(data)
	}
	sum := 0.0
	for k := 0; k < B; k++ {
		if k%procs != me {
			continue
		}
		col := cols[k]
		rows := n - k*bs
		p.StartRead(col)
		for s := 0; s < rows*bs; s++ {
			sum += col.Data.Float64(s)
		}
		p.EndRead(col)
	}
	return sum
}
