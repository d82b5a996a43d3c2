package core

import (
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/trace"
)

// HomeMigrator is an optional protocol interface: a protocol that keeps
// per-region state keyed by the home (dirty lists, push targets) can
// observe a MigrateHome flip. MigrateRegion is invoked on every
// processor during the flip, under the space's engine lock, after the
// runtime has reset r's protocol-owned state and reassigned the
// directory — oldHome and newHome let the protocol drop or rebuild any
// home-keyed bookkeeping of its own. Protocols without home-keyed state
// need not implement it: the base-state reset already leaves every
// cached copy invalid, so readers re-fetch from the new home and
// re-register as sharers lazily.
type HomeMigrator interface {
	MigrateRegion(ctx *Ctx, r *Region, oldHome, newHome amnet.NodeID)
}

// MigrateHome reassigns region id's home to newHome. It is a collective
// operation modeled on ChangeProtocol's flush discipline: a barrier
// fences in-flight brackets, the space flushes to the base state
// (authoritative data at the current home, no dirty copies), a second
// barrier fences the flush traffic, the new home pulls the data and
// lock ownership from the old one, and then every processor flips its
// view — directory moves, fast-path bits withdrawn and republished,
// cached state reset so the next access re-fetches from the new home.
// Barriers are the only safe migration points for the same reason they
// are the only safe protocol-change points: between the flush barrier
// and the release barrier no coherence message is in flight anywhere,
// so moving the directory cannot strand a transaction mid-protocol.
//
// Processors that never materialized id simply don't flip (their first
// lookup learns the current home from the allocator, which always
// keeps a view). The region lock must be free or held by a processor
// that is at this collective — i.e. not mid-critical-section — which
// the old home asserts; migrating a region out from under an active
// lock queue is a program error, as with ChangeProtocol.
func (p *Proc) MigrateHome(sp *Space, id RegionID, newHome amnet.NodeID) error {
	if int(newHome) < 0 || int(newHome) >= p.cl.Procs() {
		return fmt.Errorf("core: MigrateHome to %d, cluster has %d procs", newHome, p.cl.Procs())
	}
	if err := p.verifyCollective(fmt.Sprintf("migrate:%d:%d:%d", sp.ID, uint64(id), newHome)); err != nil {
		return err
	}
	// Migrations are recorded under the change-protocol op: both are
	// whole-space reconfiguration collectives with the same flush cost.
	t := p.rec.Begin()
	p.ctx.DefaultBarrier()
	sp.eng.Lock()
	sp.Proto.FlushSpace(sp.ctx, sp)
	// The flush invalidated cached copies space-wide, so every region's
	// fast bits must be withdrawn — not just the migrating one — or a
	// bracket could keep fast-hitting a flushed copy. The protocol
	// republishes lazily as brackets take the slow path, exactly as
	// after ChangeProtocol.
	for _, r := range p.regionList() {
		if r.Space == sp {
			r.publishFast(0)
		}
	}
	sp.eng.Unlock()
	p.ctx.DefaultBarrier()

	// Agree on the current home. Only the home has a directory; every
	// other processor (including ones that never saw id) contributes -1.
	r := p.ctx.Region(id)
	if r != nil && r.Space != sp {
		panic(fmt.Sprintf("core: proc %d: MigrateHome of %v in space %d, region is in %d",
			p.id, id, sp.ID, r.Space.ID))
	}
	mine := int64(-1)
	if r != nil && r.IsHome() {
		mine = int64(p.id)
	}
	oldHome := amnet.NodeID(p.AllReduceInt64(OpMax, mine))
	if oldHome < 0 {
		return fmt.Errorf("core: MigrateHome of %v: no processor is home", id)
	}
	if oldHome == newHome {
		return nil // symmetric no-op on every processor
	}

	// The new home pulls the authoritative data and lock ownership.
	// Between the two barriers around this step nothing else is on the
	// wire for the space, so the copy cannot interleave with coherence.
	holder := amnet.NodeID(-1)
	if p.id == newHome {
		seq := p.ctx.NewWaiter()
		p.ep.Send(amnet.Msg{Dst: oldHome, Handler: hMigrate, A: uint64(id), B: seq, D: uint64(sp.ID)})
		m := p.ctx.Wait(seq)
		holder = amnet.NodeID(int64(m.A) - 1)
		sp.eng.Lock()
		r = p.materializeAt(id, int(m.C), sp, oldHome)
		copy(r.Data, m.Payload)
		sp.eng.Unlock()
		amnet.Recycle(m.Payload)
	}
	p.ctx.DefaultBarrier()

	// Flip: every processor with a view reassigns the home and resets
	// protocol-owned state to base, exactly as a protocol change would.
	sp.eng.Lock()
	if r != nil {
		r.disableFast()
		if p.id == oldHome {
			d := r.Dir
			d.lockMu.Lock()
			queued := len(d.LockQueue)
			d.lockMu.Unlock()
			if d.Busy || len(d.Waiting) != 0 || queued != 0 {
				panic(fmt.Sprintf("core: proc %d: MigrateHome of %v with busy directory", p.id, r.ID))
			}
			r.Dir = nil
		}
		if p.id == newHome && r.Dir == nil {
			d := NewDirectory()
			d.LockHolder = holder
			r.Dir = d
		}
		r.Home = newHome
		r.State = 0
		r.Flags = 0
		r.PState = nil
		if hm, ok := sp.Proto.(HomeMigrator); ok {
			hm.MigrateRegion(sp.ctx, r, oldHome, newHome)
		}
		sp.refreshFast(r)
	}
	delete(sp.regIn, id)
	sp.eng.Unlock()
	p.ctx.DefaultBarrier()
	p.rec.End(trace.OpChangeProtocol, sp.ID, t)
	return nil
}
