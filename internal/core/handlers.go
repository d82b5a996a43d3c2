package core

import (
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
)

// registerHandlers installs the runtime's message handlers. A handler
// runs on whichever goroutine holds its node's dispatch token: a pump, a
// sender or a connection reader dispatching directly, or this
// processor's application thread polling from Ctx.Wait (see package
// amnet). The token keeps one processor's handlers from running
// concurrently with each other, but not with its application thread, so
// each takes the lock guarding the state it touches — and only that one,
// so a directory transaction on one space never serializes against
// brackets, collectives, or other spaces.
//
// Every handler below also registers its non-blocking form. The audit
// behind that: hComplete claims the waiter slot lock-free, hLookup reads
// only fields fixed when the region is created, and hLockReq,
// hUnlockMsg and hColl touch only the leaf locks Directory.lockMu and
// treeMu, neither of which is held across a Send, and send their
// completions after unlocking — so they always accept. hProto and
// hProtoBatch need a space's engine lock, which an application thread
// holds while it sends; they accept iff TryLock gets it (lockEngine) and
// otherwise decline before touching anything, leaving the message to the
// queue and a blocking Lock.
func (p *Proc) registerHandlers() {
	// always registers a handler that never declines; engine one that
	// declines when try is set and it cannot get its space's engine.
	always := func(id amnet.HandlerID, fn amnet.Handler) {
		p.ep.Register(id, fn)
		p.ep.RegisterTry(id, func(m amnet.Msg) bool { fn(m); return true })
	}
	engine := func(id amnet.HandlerID, fn func(m amnet.Msg, try bool) bool) {
		p.ep.Register(id, func(m amnet.Msg) { fn(m, false) })
		p.ep.RegisterTry(id, func(m amnet.Msg) bool { return fn(m, true) })
	}
	always(hComplete, func(m amnet.Msg) { p.ctx.Complete(m.B, m) })
	always(hLookup, p.lookupMsg)        // immutable region metadata, no lock
	always(hLockReq, p.lockRequest)     // home directory state under Dir.lockMu
	always(hUnlockMsg, p.unlockRequest) // home directory state under Dir.lockMu
	always(hColl, p.collDeliver)        // rounds and broadcasts under treeMu
	engine(hProto, p.protoMsg)
	engine(hProtoBatch, p.protoBatchMsg)
}

// lockEngine takes sp's engine lock for a message handler. A handler
// dispatched directly (try) is on a borrowed goroutine that may hold
// another processor's engine, so it must not wait: it gets the lock only
// if it is free, and declines the message otherwise.
func (sp *Space) lockEngine(try bool) bool {
	if try {
		return sp.eng.TryLock()
	}
	sp.eng.Lock()
	return true
}

// lookupMsg serves a region metadata request at the region's home. Size
// and Space are fixed when the region is created, so it reads them
// without the space's engine; the requester derives the home from the id.
func (p *Proc) lookupMsg(m amnet.Msg) {
	r := p.regions.Get(RegionID(m.A))
	if r == nil {
		panic(fmt.Sprintf("core: proc %d: lookup of unknown region %v", p.id, RegionID(m.A)))
	}
	p.ep.Send(amnet.Msg{Dst: m.Src, Handler: hComplete, A: uint64(r.Size), B: m.B, C: uint64(r.Space.ID)})
}

// protoMsg hands one protocol message to its space's Deliver.
func (p *Proc) protoMsg(m amnet.Msg, try bool) bool {
	sp := p.space(int(m.D))
	if !sp.lockEngine(try) {
		return false
	}
	r := p.regions.Get(RegionID(m.A))
	if r != nil {
		if r.Space != sp {
			panic(fmt.Sprintf("core: proc %d: protocol message for %v names space %d, region is in %d",
				p.id, r.ID, sp.ID, r.Space.ID))
		}
		// Withdraw the fast bits before Deliver examines the section
		// counts: a concurrent fast bracket either committed before
		// this point (and its count is visible below) or its CAS
		// fails and it retries through the slow path behind eng.
		r.disableFast()
	}
	sp.Proto.Deliver(sp.ctx, sp, r, m)
	if r != nil {
		sp.refreshFast(r)
	}
	p.selfDone(m.Src)
	sp.eng.Unlock()
	// Deliver implementations consume the payload synchronously
	// (copy into region data, clone into deferred queues, or forward
	// through Send, which also copies); the wire buffer is free.
	amnet.Recycle(m.Payload)
	return true
}

// protoBatchMsg hands one aggregated protocol frame to its space's
// DeliverBatch.
func (p *Proc) protoBatchMsg(m amnet.Msg, try bool) bool {
	sp := p.space(int(m.D))
	if !sp.lockEngine(try) {
		return false
	}
	bd, ok := sp.Proto.(BatchDeliverer)
	if !ok {
		panic(fmt.Sprintf("core: proc %d: aggregate frame for space %d, but protocol %q takes no batches",
			p.id, sp.ID, sp.ProtoName))
	}
	recs := p.decodeBatch(sp, m)
	bd.DeliverBatch(sp.ctx, sp, m.Src, m.C, m.B, recs)
	for _, rec := range recs {
		sp.refreshFast(rec.R)
	}
	p.selfDone(m.Src)
	sp.eng.Unlock()
	// DeliverBatch consumes record data synchronously, like Deliver.
	amnet.Recycle(m.Payload)
	return true
}

// selfSent notes a space message about to be sent to dst, which is held
// coherence state while dst is this processor (Proc.selfPending). Call
// it before the Send: the handler may run inside it.
func (p *Proc) selfSent(dst amnet.NodeID) {
	if dst == p.id {
		p.selfPending.Add(1)
	}
}

// selfDone retires a handled space message from src if this processor
// sent it to itself. Handlers call it once done with the message, engine
// handlers before releasing the engine, so FreeSpace, which reads
// selfPending under the engine, never sees a count of zero while such a
// handler is mid-way.
func (p *Proc) selfDone(src amnet.NodeID) {
	if src == p.id {
		p.selfPending.Add(-1)
	}
}
