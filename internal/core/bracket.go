package core

import (
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/memory"
	"github.com/acedsm/ace/internal/trace"
)

// GMalloc allocates a shared region of size bytes from sp. The calling
// processor becomes the region's home. The returned id is valid on every
// processor (communicate it with BroadcastIDs or by storing it in
// another region). It panics on an invalid size or a freed space —
// programmer errors in SPMD code; boundaries that feed client-derived
// input through use GMallocE, which returns the error instead.
func (p *Proc) GMalloc(sp *Space, size int) RegionID {
	id, err := p.GMallocE(sp, size)
	if err != nil {
		panic(fmt.Sprintf("core: GMalloc: %v", err))
	}
	return id
}

// GMallocE is GMalloc with the validity checks surfaced as errors: a
// non-positive or oversized (MaxRegionSize) size fails with ErrBadSize,
// allocation from a freed space with ErrStaleSpace. It never panics on
// bad input, so it is safe at boundaries where sizes derive from
// untrusted client frames.
func (p *Proc) GMallocE(sp *Space, size int) (RegionID, error) {
	if size <= 0 || size > MaxRegionSize {
		return 0, &BadSizeError{Size: size}
	}
	if sp.dead.Load() {
		return 0, &StaleSpaceError{Ref: sp.Ref()}
	}
	t := p.rec.Begin()
	p.regMu.Lock()
	p.nextSeq++
	id := memory.MakeID(int32(p.id), p.nextSeq)
	r := &Region{
		ID:    id,
		Home:  p.id,
		Size:  size,
		Data:  make(memory.Data, size),
		Space: sp,
		Dir:   NewDirectory(),
	}
	p.regions.Put(id, r)
	p.regMu.Unlock()
	sp.eng.Lock()
	sp.regions = append(sp.regions, r)
	sp.Proto.RegionCreated(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	sp.done(trace.OpGMalloc, t)
	return id, nil
}

// Map translates a region id into this processor's local view of the
// region, materializing it (fetching its metadata from the home) if this
// is the first encounter; a BroadcastIDs that named the region has left
// its metadata here already. The data is not necessarily valid until a
// StartRead or StartWrite.
func (p *Proc) Map(id RegionID) *Region {
	t := p.rec.Begin()
	r := p.regions.Get(id)
	slow := r == nil
	if slow {
		r = p.fetchRegion(id)
	}
	sp := r.Space
	r.MapCount++
	// Null-point elimination: a protocol that declared its map hook null
	// has nothing to run here, so the engine is not taken and the fast
	// bits (a pure function of protocol state no hook changed) stand.
	if !sp.null.Has(PointMap) {
		sp.eng.Lock()
		sp.Proto.Map(sp.ctx, r)
		sp.refreshFast(r)
		sp.eng.Unlock()
		slow = true
	}
	if slow {
		sp.done(trace.OpMap, t)
	} else {
		sp.count(trace.OpMap, t)
	}
	return r
}

// fetchRegion materializes a remote region from its broadcast hint, or
// else asks its home for metadata.
func (p *Proc) fetchRegion(id RegionID) *Region {
	if amnet.NodeID(id.Home()) == p.id {
		panic(fmt.Sprintf("core: proc %d: unknown home region %v", p.id, id))
	}
	h, ok := p.hints[id]
	if ok {
		delete(p.hints, id)
	} else {
		seq := p.ctx.NewWaiter()
		p.ep.Send(amnet.Msg{Dst: amnet.NodeID(id.Home()), Handler: hLookup, A: uint64(id), B: seq})
		m := p.ctx.Wait(seq)
		h = regionHint{size: int(m.A), space: int(m.C)}
	}
	sp := p.space(h.space)
	sp.eng.Lock()
	r := p.materialize(id, h.size, sp)
	sp.eng.Unlock()
	return r
}

// materialize creates the local view of a region homed elsewhere at the
// home its id encodes, returning the existing view if a protocol push
// raced it in. Caller holds sp's engine lock.
func (p *Proc) materialize(id RegionID, size int, sp *Space) *Region {
	p.regMu.Lock()
	if r := p.regions.Get(id); r != nil {
		p.regMu.Unlock()
		return r
	}
	r := &Region{
		ID:    id,
		Home:  amnet.NodeID(id.Home()),
		Size:  size,
		Data:  make(memory.Data, size),
		Space: sp,
	}
	p.regions.Put(id, r)
	p.regMu.Unlock()
	sp.regions = append(sp.regions, r)
	sp.Proto.RegionCreated(sp.ctx, r)
	sp.refreshFast(r)
	return r
}

// Unmap releases one map of r. Cached data survives unmapping and remains
// under coherence (CRL-style unmapped-region caching).
func (p *Proc) Unmap(r *Region) {
	t := p.rec.Begin()
	sp := r.Space
	if r.MapCount <= 0 {
		panic(fmt.Sprintf("core: proc %d: unmap of unmapped region %v", p.id, r.ID))
	}
	r.MapCount--
	if sp.null.Has(PointUnmap) { // null-point elimination, as in Map
		sp.count(trace.OpUnmap, t)
		return
	}
	sp.eng.Lock()
	sp.Proto.Unmap(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	sp.done(trace.OpUnmap, t)
}

// StartRead opens a read section on r. On return r.Data is valid for
// reading under the space's protocol.
//
// The fast path: when r's protocol has published the FastRead
// eligibility bit, opening the section is a single CAS on the region's
// hot word — no lock, no protocol invocation. Any interference (bit
// withdrawn by the engine, concurrent word update) falls back to the
// engine-locked slow path.
func (p *Proc) StartRead(r *Region) {
	t := p.rec.Begin()
	if r.tryFastStart(rwFastRead, rwReaderShift) {
		r.Space.hit(trace.OpStartRead, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.StartRead(sp.ctx, r)
	r.adjSections(1, rwReaderShift)
	sp.refreshFast(r)
	sp.eng.Unlock()
	if !r.IsHome() {
		p.rec.RemoteMiss(trace.OpStartRead, sp.ID)
	}
	sp.done(trace.OpStartRead, t)
}

// EndRead closes a read section on r.
func (p *Proc) EndRead(r *Region) {
	t := p.rec.Begin()
	if r.tryFastEnd(rwFastRead, rwReaderShift) {
		r.Space.hit(trace.OpEndRead, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	if r.Readers() <= 0 {
		panic(fmt.Sprintf("core: proc %d: EndRead without StartRead on %v", p.id, r.ID))
	}
	r.adjSections(-1, rwReaderShift)
	sp.Proto.EndRead(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	sp.done(trace.OpEndRead, t)
}

// StartWrite opens a write section on r. On return r.Data is valid for
// writing under the space's protocol. Fast path as in StartRead, gated
// on FastWrite or FastWriteLogged.
func (p *Proc) StartWrite(r *Region) {
	t := p.rec.Begin()
	if r.tryFastStart(rwFastWrites, rwWriterShift) {
		r.Space.hit(trace.OpStartWrite, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.StartWrite(sp.ctx, r)
	r.adjSections(1, rwWriterShift)
	sp.refreshFast(r)
	sp.eng.Unlock()
	if !r.IsHome() {
		p.rec.RemoteMiss(trace.OpStartWrite, sp.ID)
	}
	sp.done(trace.OpStartWrite, t)
}

// EndWrite closes a write section on r. Under FastWriteLogged the fast
// close is still one CAS: it also sets r's written bit, and the close
// that set it appends r to the space's write log. The log is written at
// the close, not the open, because a section opened on the slow path
// may close on the fast one after a republish.
func (p *Proc) EndWrite(r *Region) {
	t := p.rec.Begin()
	if ok, logged := r.tryFastEndWrite(); ok {
		if logged {
			r.Space.log = append(r.Space.log, r)
		}
		r.Space.hit(trace.OpEndWrite, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	if r.Writers() <= 0 {
		panic(fmt.Sprintf("core: proc %d: EndWrite without StartWrite on %v", p.id, r.ID))
	}
	r.adjSections(-1, rwWriterShift)
	sp.Proto.EndWrite(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	sp.done(trace.OpEndWrite, t)
}

// Barrier executes a barrier with the semantics of sp's protocol (for
// example, a static update protocol propagates updates here). When the
// cluster runs with Options.Adapt, the adaptive controller evaluates the
// space here, after the barrier completes and the engine is released.
func (p *Proc) Barrier(sp *Space) {
	t := p.rec.Begin()
	sp.eng.Lock()
	sp.Proto.Barrier(sp.ctx, sp)
	sp.eng.Unlock()
	sp.done(trace.OpBarrier, t)
	if p.cl.adapt != nil {
		p.adaptTick(sp)
	}
}

// GlobalBarrier synchronizes all processors without protocol semantics.
// It is deliberately not a controller evaluation point: a program
// synchronizing through protocol-less barriers gives the controller no
// license to install a protocol whose coherence actions live in the
// space barrier (the push family acts there), so adaptation only ticks
// in Barrier, where the space's protocol barrier actually ran.
func (p *Proc) GlobalBarrier() {
	p.ctx.DefaultBarrier()
}

// Lock acquires the region lock with the semantics of the region's
// protocol.
func (p *Proc) Lock(r *Region) {
	t := p.rec.Begin()
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.Lock(sp.ctx, r)
	sp.eng.Unlock()
	sp.done(trace.OpLock, t)
}

// Unlock releases the region lock.
func (p *Proc) Unlock(r *Region) {
	t := p.rec.Begin()
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.Unlock(sp.ctx, r)
	sp.eng.Unlock()
	sp.done(trace.OpUnlock, t)
}

// DropCopy asks r's protocol to discard the local cached copy if safe,
// reporting whether it did. Runtimes with bounded region caches use this
// for eviction.
func (p *Proc) DropCopy(r *Region) bool {
	d, ok := r.Space.Proto.(Dropper)
	if !ok {
		return false
	}
	sp := r.Space
	sp.eng.Lock()
	dropped := d.DropCopy(sp.ctx, r)
	if dropped {
		sp.refreshFast(r)
	}
	sp.eng.Unlock()
	return dropped
}

// The Bare section operations invoke the protocol routine without the
// runtime's section pairing bookkeeping. Compiled code uses them when the
// matching bracket was a null handler the direct-dispatch pass deleted;
// the protocol's null declaration is its promise that it needs no open-
// section accounting at these points (the paper's runtime kept none).
//
// Their fast path is a bare eligibility-bit load: publishing the bit
// already promises the protocol routine is a no-op, and Bare variants
// keep no counts, so there is nothing to CAS — except for a logged
// write close, whose CAS sets the written bit as EndWrite's does.

// StartReadBare opens a read section without bookkeeping.
func (p *Proc) StartReadBare(r *Region) {
	t := p.rec.Begin()
	if r.fastEligible(rwFastRead) {
		r.Space.hit(trace.OpStartRead, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.StartRead(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	if !r.IsHome() {
		p.rec.RemoteMiss(trace.OpStartRead, sp.ID)
	}
	sp.done(trace.OpStartRead, t)
}

// EndReadBare closes a read section without bookkeeping.
func (p *Proc) EndReadBare(r *Region) {
	t := p.rec.Begin()
	if r.fastEligible(rwFastRead) {
		r.Space.hit(trace.OpEndRead, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.EndRead(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	sp.done(trace.OpEndRead, t)
}

// StartWriteBare opens a write section without bookkeeping.
func (p *Proc) StartWriteBare(r *Region) {
	t := p.rec.Begin()
	if r.fastEligible(rwFastWrites) {
		r.Space.hit(trace.OpStartWrite, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.StartWrite(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	if !r.IsHome() {
		p.rec.RemoteMiss(trace.OpStartWrite, sp.ID)
	}
	sp.done(trace.OpStartWrite, t)
}

// EndWriteBare closes a write section without bookkeeping.
func (p *Proc) EndWriteBare(r *Region) {
	t := p.rec.Begin()
	if ok, logged := r.tryFastEndWriteBare(); ok {
		if logged {
			r.Space.log = append(r.Space.log, r)
		}
		r.Space.hit(trace.OpEndWrite, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.EndWrite(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	sp.done(trace.OpEndWrite, t)
}
