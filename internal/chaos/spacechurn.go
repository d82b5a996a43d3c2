package chaos

// Space-churn cells: waves of collective NewSpace / bracket traffic /
// FreeSpace on a fault-injecting transport. Where the conformance
// matrix checks what protocols do to shared data, these cells check
// what the lifecycle does to the space table itself, under the same
// fault policies:
//
//   - bounded table: a wave of W spaces freed in a seeded order must
//     recycle its slots — the table never grows past base+W across any
//     number of waves;
//   - stale-ID rejection: every freed space's generation-tagged ref
//     must keep failing SpaceByRef with ErrStaleSpace, even after its
//     slot is reoccupied;
//   - generation advance: a recycled slot's new space must never
//     carry a generation already seen on a freed ref;
//   - coherence on churned spaces: a home write bracketed on a fresh
//     space must be visible to every processor after one barrier,
//     exactly as on a long-lived space.

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/acedsm/ace/internal/core"
)

var churnRun = runner{kind: "churn", test: "TestSpaceChurnFixedSeeds", regions: 4, turns: 6, minProcs: 1}

// RunSpaceChurn executes one space-churn cell and reports the outcome.
// Config reuse: Regions is the wave width (spaces live at once,
// default 4), Turns the wave count (default 6), and Protocol (default
// "sc") the protocol every churned space is created on.
func RunSpaceChurn(cfg Config) Report {
	if cfg.Protocol == "" {
		cfg.Protocol = "sc"
	}
	d := churnRun.start(cfg)
	if d.cl == nil {
		return d.rep
	}
	defer d.cl.Close()
	return d.finish(d.cl.Run(spaceChurnWorker(d.cfg)))
}

// spaceChurnWorker is the SPMD body: every processor executes the
// identical seeded collective sequence (the collective-call discipline
// demands it), so the free order is a pure function of (seed, wave).
// Writes are home-only, which every library protocol permits.
func spaceChurnWorker(cfg Config) func(p *core.Proc) error {
	width, waves := cfg.Regions, cfg.Turns
	return func(p *core.Proc) error {
		base := p.SpaceSlots()
		bound := base + width
		var stale []core.SpaceRef
		staleSet := make(map[core.SpaceRef]bool)
		for w := 0; w < waves; w++ {
			sps := make([]*core.Space, width)
			regs := make([]*core.Region, width)
			homes := make([]int, width)
			for i := range sps {
				sp, err := p.NewSpace(cfg.Protocol)
				if err != nil {
					return fmt.Errorf("wave %d: new space: %w", w, err)
				}
				if staleSet[sp.Ref()] {
					return fmt.Errorf("wave %d: recycled slot reissued stale ref %v", w, sp.Ref())
				}
				sps[i] = sp
				// One region per space, homed round-robin; the home
				// allocates, the id is broadcast, and everyone maps and
				// touches it so push protocols see the full sharer set.
				homes[i] = (w + i) % cfg.Procs
				var id core.RegionID
				if p.ID() == homes[i] {
					var err error
					id, err = p.GMallocE(sp, 64)
					if err != nil {
						return fmt.Errorf("wave %d: alloc: %w", w, err)
					}
				}
				id = p.BroadcastID(homes[i], id)
				regs[i] = p.Map(id)
				p.StartRead(regs[i])
				p.EndRead(regs[i])
				p.Barrier(sp)
			}
			// The home writes, visibility checked by everyone after the
			// barrier: churned spaces are coherent like any other.
			for i := range sps {
				val := int64(w*width + i + 1)
				if p.ID() == homes[i] {
					p.StartWrite(regs[i])
					regs[i].Data.SetInt64(0, val)
					p.EndWrite(regs[i])
				}
				p.Barrier(sps[i])
				p.StartRead(regs[i])
				got := regs[i].Data.Int64(0)
				p.EndRead(regs[i])
				if got != val {
					return fmt.Errorf("wave %d space %d: proc %d read %d, want %d",
						w, i, p.ID(), got, val)
				}
				p.Barrier(sps[i])
			}
			// Free in a seeded order shared by every processor.
			order := rand.New(rand.NewSource(cfg.Seed + int64(w))).Perm(width)
			for _, i := range order {
				ref := sps[i].Ref()
				if err := p.FreeSpace(sps[i]); err != nil {
					return fmt.Errorf("wave %d: free space %v: %w", w, ref, err)
				}
				stale = append(stale, ref)
				staleSet[ref] = true
			}
			if got := p.SpaceSlots(); got > bound {
				return fmt.Errorf("wave %d: space table grew past its bound: %d > %d (base %d, width %d)",
					w, got, bound, base, width)
			}
			for _, ref := range stale {
				if _, err := p.SpaceByRef(ref); !errors.Is(err, core.ErrStaleSpace) {
					return fmt.Errorf("wave %d: stale ref %v resolved (err=%v), want ErrStaleSpace",
						w, ref, err)
				}
			}
		}
		return nil
	}
}
