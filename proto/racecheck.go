package proto

import (
	"fmt"
	"sync/atomic"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
)

// RaceCheckInfo returns the registry entry for the data-race checking
// protocol — the paper's Section 2.1 example of why protocols need *full*
// access control: "the data-race checking protocol proposed by Larus et
// al. can be executed either before or after accesses", which
// access-fault schemes cannot express (a fault fires before the access
// only).
//
// The protocol moves data like the write-through protocol (pull on read,
// ship home on write-end, drain at barriers) and, in addition, reports
// every section's open and close to the region's home, which maintains
// reader/writer occupancy and counts conflicts: a write section
// overlapping any other processor's section, or a read section overlapping
// another processor's write section. Totals are queried with
// RaceViolations after a barrier.
//
// Detection is sound for the section overlaps the home observes; because
// the notifications ride asynchronous messages, two sections that overlap
// in real time but not in home-arrival order can be missed — the usual
// happens-before slack of dynamic race detectors.
func RaceCheckInfo() core.Info {
	return core.Info{
		Name: "racecheck",
		New:  func() core.Protocol { return newRaceCheck() },
		// The checker's semantics depend on every access running its
		// handlers: never optimizable, no null points. For the same
		// reason the protocol deliberately does not implement
		// core.FastPather — a lock-free bracket hit would skip the
		// occupancy notifications the detector is built on.
		Optimizable: false,
		Null:        0,
	}
}

// Protocol verbs.
const (
	rcFetch uint64 = iota + 1 // reader → home: pull contents
	rcStore                   // writer → home: install contents
	rcAck                     // home → writer: installed
	rcOpen                    // accessor → home: section opened (B: 1=write)
	rcClose                   // accessor → home: section closed (B: 1=write)
)

// rcOccupancy is the home-side per-region occupancy ledger.
type rcOccupancy struct {
	readers map[amnet.NodeID]int
	writers map[amnet.NodeID]int
}

type raceCheck struct {
	core.Base
	fetch      Fetcher
	drain      Drain
	violations atomic.Int64
}

func newRaceCheck() *raceCheck {
	return &raceCheck{fetch: Fetcher{Verb: rcFetch}}
}

func (rc *raceCheck) Name() string { return "racecheck" }

// RaceViolations returns the conflicts the given space's protocol instance
// has counted on this processor (homes count conflicts for the regions
// they own). Call after a barrier for a stable total, and sum across
// processors for the global count.
func RaceViolations(sp *core.Space) int64 {
	rc, ok := sp.Proto.(*raceCheck)
	if !ok {
		panic(fmt.Sprintf("proto: space %d does not run the racecheck protocol", sp.ID))
	}
	return rc.violations.Load()
}

func (rc *raceCheck) StartRead(ctx *core.Ctx, r *core.Region) {
	rc.fetch.Pull(ctx, r)
	rc.drain.Add(1) // notifications are acknowledged via section close
	ctx.SendProto(r.Home, uint64(r.ID), 0, rcOpen, uint64(r.Space.ID), nil)
}

func (rc *raceCheck) EndRead(ctx *core.Ctx, r *core.Region) {
	ctx.SendProto(r.Home, uint64(r.ID), 0, rcClose, uint64(r.Space.ID), nil)
}

func (rc *raceCheck) StartWrite(ctx *core.Ctx, r *core.Region) {
	rc.fetch.Pull(ctx, r)
	rc.drain.Add(1)
	ctx.SendProto(r.Home, uint64(r.ID), 1, rcOpen, uint64(r.Space.ID), nil)
}

func (rc *raceCheck) EndWrite(ctx *core.Ctx, r *core.Region) {
	if !r.IsHome() {
		rc.drain.Add(1)
		ctx.SendProto(r.Home, uint64(r.ID), 0, rcStore, uint64(r.Space.ID), r.Data)
	}
	ctx.SendProto(r.Home, uint64(r.ID), 1, rcClose, uint64(r.Space.ID), nil)
}

func (rc *raceCheck) Barrier(ctx *core.Ctx, sp *core.Space) {
	rc.drain.Wait(ctx)
	SelfInvalidate(ctx, sp)
	ctx.DefaultBarrier()
}

func (rc *raceCheck) FlushSpace(ctx *core.Ctx, sp *core.Space) {
	rc.drain.Wait(ctx)
}

func (rc *raceCheck) Deliver(ctx *core.Ctx, sp *core.Space, r *core.Region, m amnet.Msg) {
	switch m.C {
	case rcFetch:
		rc.fetch.Serve(ctx, r, m)
	case rcStore:
		if r == nil || !r.IsHome() {
			panic(fmt.Sprintf("proto: racecheck: store off-home for %v", core.RegionID(m.A)))
		}
		copy(r.Data, m.Payload)
		ctx.SendProto(m.Src, m.A, 0, rcAck, m.D, nil)
	case rcAck:
		rc.drain.Ack(ctx)
	case rcOpen:
		occ := rc.occupancy(r)
		write := m.B == 1
		// Conflict rules: a write overlaps anyone else's section; a read
		// overlaps anyone else's write.
		for n := range occ.writers {
			if n != m.Src {
				rc.violations.Add(1)
			}
		}
		if write {
			for n := range occ.readers {
				if n != m.Src {
					rc.violations.Add(1)
				}
			}
			occ.writers[m.Src]++
		} else {
			occ.readers[m.Src]++
		}
	case rcClose:
		occ := rc.occupancy(r)
		write := m.B == 1
		tab := occ.readers
		if write {
			tab = occ.writers
		}
		if tab[m.Src] <= 0 {
			panic(fmt.Sprintf("proto: racecheck: unbalanced close from %d on %v", m.Src, r.ID))
		}
		tab[m.Src]--
		if tab[m.Src] == 0 {
			delete(tab, m.Src)
		}
		// The opener's drain entry completes at close.
		ctx.SendProto(m.Src, m.A, 0, rcAck, m.D, nil)
	default:
		panic(fmt.Sprintf("proto: racecheck: bad verb %d", m.C))
	}
}

// occupancy lazily allocates the home's per-region ledger.
func (rc *raceCheck) occupancy(r *core.Region) *rcOccupancy {
	if r == nil || !r.IsHome() {
		panic("proto: racecheck: occupancy off-home")
	}
	occ, _ := r.Dir.PData.(*rcOccupancy)
	if occ == nil {
		occ = &rcOccupancy{readers: map[amnet.NodeID]int{}, writers: map[amnet.NodeID]int{}}
		r.Dir.PData = occ
	}
	return occ
}
