// Package water implements a Water-style molecular dynamics benchmark
// (SPLASH): each iteration alternates an inter-molecular phase — O(N²)
// pairwise force computation whose contributions are accumulated into
// molecules owned by other processors — and an intra-molecular phase that
// integrates each processor's own molecules.
//
// The application-specific optimization (Sections 2.2 and 5.2) is phase
// protocol switching: pipelined (split-phase, additive) writes during the
// inter-molecular phase and a null protocol during the intra-molecular
// phase, which the paper reports gives a speedup of two over a
// sequentially consistent execution.
package water

import (
	"fmt"
	"time"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/rtiface"
)

// Config parameterizes the benchmark. The paper used 512 molecules and 3
// steps.
type Config struct {
	Molecules int
	Steps     int
	DT        float64
	Seed      int64

	// PhaseProtocols enables the paper's optimization: the molecule
	// space runs "pipeline" during the inter-molecular phase and "null"
	// during the intra-molecular phase, switching with ChangeProtocol.
	PhaseProtocols bool
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig() Config {
	return Config{Molecules: 64, Steps: 5, DT: 0.001, Seed: 5}
}

// Molecule region layout, in float64 slots.
const (
	slotPX = iota
	slotPY
	slotPZ
	slotVX
	slotVY
	slotVZ
	slotFX
	slotFY
	slotFZ
	molSlots
)

// Run executes Water on rt.
func Run(rt rtiface.RT, cfg Config) (apputil.Result, error) {
	label := "sc"
	if cfg.PhaseProtocols {
		label = "pipeline/null"
	}
	res := apputil.Result{Name: "water", Runtime: rt.Name(), Protocols: label}
	if cfg.Molecules < rt.Procs() || cfg.Steps < 2 {
		return res, fmt.Errorf("water: bad config %+v", cfg)
	}
	srt, hasSpaces := rt.(rtiface.SpaceRT)
	if cfg.PhaseProtocols && !hasSpaces {
		return res, fmt.Errorf("water: runtime %s has no spaces for phase protocols", rt.Name())
	}

	var space rtiface.SpaceID
	useSpace := cfg.PhaseProtocols
	if useSpace {
		var err error
		if space, err = srt.NewSpace("sc"); err != nil {
			return res, err
		}
	}

	n := cfg.Molecules
	lo, hi := apputil.Block(n, rt.Procs(), rt.ID())
	mine := make([]core.RegionID, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if useSpace {
			mine = append(mine, srt.MallocIn(space, molSlots*8))
		} else {
			mine = append(mine, rt.Malloc(molSlots*8))
		}
	}
	ids := gatherIDs(rt, n, mine)
	for i := lo; i < hi; i++ {
		rng := apputil.RNG(cfg.Seed, int64(i))
		h := rt.Map(ids[i])
		rt.StartWrite(h)
		for d := 0; d < 3; d++ {
			h.Data().SetFloat64(slotPX+d, rng.Float64()*4-2)
			h.Data().SetFloat64(slotVX+d, 0)
			h.Data().SetFloat64(slotFX+d, 0)
		}
		rt.EndWrite(h)
		rt.Unmap(h)
	}
	rt.Barrier()

	if useSpace {
		if err := srt.ChangeProtocol(space, "pipeline"); err != nil {
			return res, err
		}
	}

	pos := make([][3]float64, n)
	delta := make([][3]float64, n)
	var tm apputil.Timer
	for step := 0; step < cfg.Steps; step++ {
		tm.StartIter()

		// --- Inter-molecular phase ---
		// Read all positions once.
		for i, id := range ids {
			h := rt.Map(id)
			rt.StartRead(h)
			pos[i] = [3]float64{h.Data().Float64(slotPX), h.Data().Float64(slotPY), h.Data().Float64(slotPZ)}
			rt.EndRead(h)
			rt.Unmap(h)
		}
		// Accumulate pairwise force contributions locally. Each pair is
		// computed exactly once, by the owner of its lower-index
		// molecule (Newton's third law), so contributions to the
		// higher-index molecule often target remote regions.
		for i := range delta {
			delta[i] = [3]float64{}
		}
		for i := lo; i < hi; i++ {
			for j := i + 1; j < n; j++ {
				f := pairForce(pos[i], pos[j])
				for d := 0; d < 3; d++ {
					delta[i][d] += f[d]
					delta[j][d] -= f[d]
				}
			}
		}
		// Ship the accumulated contributions: one additive write section
		// per molecule touched. Under "pipeline" remote sections are
		// zero-initialized scratch, so += writes the delta; under "sc"
		// the fetched copy is current, so += adds correctly. Identical
		// source, both protocols.
		for j := 0; j < n; j++ {
			if delta[j] == ([3]float64{}) {
				continue
			}
			h := rt.Map(ids[j])
			rt.StartWrite(h)
			d := h.Data()
			d.SetFloat64(slotFX, d.Float64(slotFX)+delta[j][0])
			d.SetFloat64(slotFY, d.Float64(slotFY)+delta[j][1])
			d.SetFloat64(slotFZ, d.Float64(slotFZ)+delta[j][2])
			rt.EndWrite(h)
			rt.Unmap(h)
		}
		if useSpace {
			srt.BarrierSpace(space) // drains the write pipeline
		} else {
			rt.Barrier()
		}

		// --- Intra-molecular phase ---
		if useSpace {
			if err := srt.ChangeProtocol(space, "null"); err != nil {
				return res, err
			}
		}
		for i := lo; i < hi; i++ {
			h := rt.Map(ids[i])
			rt.StartWrite(h)
			d := h.Data()
			for k := 0; k < 3; k++ {
				v := d.Float64(slotVX+k) + d.Float64(slotFX+k)*cfg.DT
				d.SetFloat64(slotVX+k, v)
				d.SetFloat64(slotPX+k, d.Float64(slotPX+k)+v*cfg.DT)
				d.SetFloat64(slotFX+k, 0)
			}
			rt.EndWrite(h)
			rt.Unmap(h)
		}
		if useSpace {
			if err := srt.ChangeProtocol(space, "pipeline"); err != nil {
				return res, err
			}
		} else {
			rt.Barrier()
		}
		tm.EndIter()
	}

	sum := 0.0
	for i := lo; i < hi; i++ {
		h := rt.Map(ids[i])
		rt.StartRead(h)
		sum += h.Data().Float64(slotPX) + h.Data().Float64(slotPY) + h.Data().Float64(slotPZ)
		rt.EndRead(h)
		rt.Unmap(h)
	}
	res.Checksum = rt.AllReduceFloat64(core.OpSum, sum)

	iters, total := tm.Timed()
	res.Iters = iters
	res.Total = time.Duration(rt.AllReduceInt64(core.OpMax, int64(total)))
	if iters > 0 {
		res.TimePerIter = res.Total / time.Duration(iters)
	}
	rt.Barrier()
	return res, nil
}

// pairForce is a softened inverse-square attraction, standing in for the
// SPLASH code's water potential; what matters to the runtime is the
// access pattern, not the physics.
func pairForce(a, b [3]float64) [3]float64 {
	dx := b[0] - a[0]
	dy := b[1] - a[1]
	dz := b[2] - a[2]
	r2 := dx*dx + dy*dy + dz*dz + 0.25
	inv := 1 / (r2 * r2)
	return [3]float64{dx * inv, dy * inv, dz * inv}
}

func gatherIDs(rt rtiface.RT, n int, mine []core.RegionID) []core.RegionID {
	all := make([]core.RegionID, 0, n)
	for p := 0; p < rt.Procs(); p++ {
		if p == rt.ID() {
			all = append(all, rt.BroadcastIDs(p, mine)...)
		} else {
			lo, hi := apputil.Block(n, rt.Procs(), p)
			all = append(all, rt.BroadcastIDs(p, make([]core.RegionID, hi-lo))...)
		}
	}
	return all
}
