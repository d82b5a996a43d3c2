package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/trace"
)

// Ctx provides the services protocol implementations build on: sending
// protocol messages, blocking the application thread on a waiter, default
// barrier and lock implementations, and access to the region table. Each
// space owns a Ctx bound to its engine lock; protocol routines always
// receive that Ctx, so Wait can release the engine while blocked. The
// proc-level Ctx (no engine) backs the runtime's own collectives and
// lookups.
type Ctx struct {
	p *Proc
	// eng is the engine lock the caller holds while running protocol
	// code, released across Wait; nil for the proc-level Ctx.
	eng *sync.Mutex
}

// ID returns the processor id.
func (c *Ctx) ID() amnet.NodeID { return c.p.id }

// Procs returns the cluster size.
func (c *Ctx) Procs() int { return c.p.cl.Procs() }

// Region returns the local view of id, or nil if not materialized here.
func (c *Ctx) Region(id RegionID) *Region {
	r := c.p.regions.Get(id)
	return r
}

// EnsureRegion returns the local view of id, materializing it with the
// given size and space if absent. Push-based protocols use this when data
// arrives for a region the local processor has never mapped. The caller
// must hold the engine lock of the space named by spaceID — always the
// case inside Deliver, which runs under the addressed space's engine.
func (c *Ctx) EnsureRegion(id RegionID, size, spaceID int) *Region {
	if r := c.Region(id); r != nil {
		return r
	}
	return c.p.materialize(id, size, c.p.space(spaceID))
}

// ForEachRegion visits every region of sp this processor has a view of,
// in creation order. The caller holds sp's engine lock, as every
// protocol hook does. The visited set is a snapshot: regions
// materialized during the iteration (while fn waits with the engine
// released) are not visited.
func (c *Ctx) ForEachRegion(sp *Space, fn func(*Region)) {
	for _, r := range sp.regions {
		fn(r)
	}
}

// Space returns the space with the given id.
func (c *Ctx) Space(id int) *Space {
	return c.p.space(id)
}

// DisableFast atomically withdraws r's fast-path eligibility bits.
// Protocol code that is about to mutate the coherence state of a region
// other than the one the runtime invoked it for (bulk invalidation
// loops, barrier-time self-invalidation) must call it first, so a
// concurrent fast bracket cannot commit against the stale state; the
// runtime handles the invoked region itself.
func (c *Ctx) DisableFast(r *Region) { r.disableFast() }

// RefreshFast recomputes and republishes r's eligibility bits from its
// space's protocol. Call it (with the space's engine held) after bulk
// mutations disabled the fast path with DisableFast.
func (c *Ctx) RefreshFast(r *Region) { r.Space.refreshFast(r) }

// NewWaiter arms the processor's waiter slot and returns the wait's
// sequence number. The application thread passes the number in a
// request message (field B by convention) and calls Wait; the reply
// handler calls Complete. Only the application thread may call it, and
// an SPMD thread blocks on at most one reply at a time, so there is one
// slot: arming it while a wait is pending is a bug and panics. A
// sequence number is never reused, so nothing addressed to an earlier
// wait can complete this one.
func (c *Ctx) NewWaiter() uint64 {
	p := c.p
	if s := p.waitSeq.Load(); s != 0 || len(p.waitCh) != 0 {
		panic(fmt.Sprintf("core: proc %d: NewWaiter while waiter %d is pending", p.id, p.nextWaiter))
	}
	p.nextWaiter++
	p.waitSeq.Store(p.nextWaiter)
	return p.nextWaiter
}

// Wait blocks until Complete is called for seq, releasing the caller's
// engine lock (if any) while blocked and reacquiring it before
// returning. Only the application thread may call Wait, for the seq its
// last NewWaiter returned. A handler may complete the wait in the window
// between NewWaiter and Wait; the slot's channel holds the message.
//
// Before parking, Wait polls its own endpoint once (direct-dispatch
// fabrics only): a reply or an invalidation ack that had to be queued —
// the node's token was busy, or its handler declined because this thread held the
// engine — is delivered here, on the application thread, instead of
// waiting for the pump to be scheduled. The engine is already released
// and the thread holds no other lock, so it may run any handler. A wait
// whose reply is still missing then blocks, counted in the endpoint's
// NetStats.WaitsParked.
//
// The wait is interruptible: when the transport declares a peer lost
// (amnet.PeerAware) or Options.SyncTimeout elapses, Wait panics with a
// typed error (*PeerLostError, *SyncStallError) that Run converts to
// the processor's error — so barriers, locks and coherence fetches fail
// instead of hanging forever. The panic unwinds with the engine lock
// released (Wait had released it to block); the cluster is not usable
// afterwards.
func (c *Ctx) Wait(seq uint64) amnet.Msg {
	p := c.p
	if seq == 0 || seq != p.nextWaiter {
		panic(fmt.Sprintf("core: proc %d: wait on unknown waiter %d", p.id, seq))
	}
	if c.eng != nil {
		c.eng.Unlock()
	}
	if p.direct != nil && len(p.waitCh) == 0 {
		p.direct.Poll()
	}
	if len(p.waitCh) == 0 {
		p.ep.Stats().WaitsParked.Add(1)
	}
	m := p.waitSync(seq)
	if c.eng != nil {
		c.eng.Lock()
	}
	return m
}

// waitSync blocks on the waiter slot, the peer-down signal, and — when
// configured — the synchronization timeout. A completion that raced in
// ahead of a failure signal still wins.
func (p *Proc) waitSync(seq uint64) amnet.Msg {
	var fail error
	if d := p.cl.opts.SyncTimeout; d > 0 {
		t := p.armStall(d)
		defer t.Stop()
		select {
		case m := <-p.waitCh:
			return m
		case <-p.downCh:
		case <-t.C:
			fail = &SyncStallError{Local: int(p.id), After: d}
		}
	} else {
		select {
		case m := <-p.waitCh:
			return m
		case <-p.downCh:
		}
	}
	if fail == nil {
		fail = &PeerLostError{Local: int(p.id), Peer: int(p.downPeer.Load())}
	}
	if m, ok := p.abandonWait(seq); ok {
		return m
	}
	panic(fail)
}

// abandonWait ends the failing wait seq: it raises the watermark, then
// claims the seq. If a completion claimed it first, its message is in
// the channel or about to be, and it wins: abandonWait returns it with
// ok set. Once the claim is abandonWait's, a completion finds the seq
// disarmed and the watermark at or above it, and is dropped — so a
// failed wait strands nothing in the slot.
func (p *Proc) abandonWait(seq uint64) (m amnet.Msg, ok bool) {
	p.staleSeq.Store(seq)
	if p.waitSeq.CompareAndSwap(seq, 0) {
		return amnet.Msg{}, false
	}
	return <-p.waitCh, true
}

// armStall arms the application thread's stall timer for one wait of d.
// The timer is reused across waits, so a timed wait allocates nothing;
// a tick left over from an earlier wait is drained first.
func (p *Proc) armStall(d time.Duration) *time.Timer {
	if p.stall == nil {
		p.stall = time.NewTimer(d)
		return p.stall
	}
	if !p.stall.Stop() {
		select {
		case <-p.stall.C:
		default:
		}
	}
	p.stall.Reset(d)
	return p.stall
}

// Complete finishes the wait seq, handing it m. It is typically called
// from a Deliver handler (for locally served requests it may also be
// called from the application thread). Complete never blocks. A
// completion for an abandoned wait (one whose Wait already failed with
// ErrSyncStall or ErrPeerLost, or that Revive disarmed) is dropped and
// its payload recycled; completing a wait that was never armed is a
// protocol bug and panics.
func (c *Ctx) Complete(seq uint64, m amnet.Msg) {
	p := c.p
	if seq != 0 {
		if p.waitSeq.CompareAndSwap(seq, 0) {
			// The claim makes this the wait's one completion, and the
			// channel is empty while a wait is armed: the send never
			// blocks.
			p.waitCh <- m
			return
		}
		if seq <= p.staleSeq.Load() {
			amnet.Recycle(m.Payload)
			return
		}
	}
	panic(fmt.Sprintf("core: proc %d: complete of unknown waiter %d", p.id, seq))
}

// SendProto sends a protocol message. A names the region (0 for space-
// level messages), B carries a waiter sequence when a reply is expected, C
// is the protocol verb and D the space id (used by the destination to
// dispatch when the region is not materialized there). The payload is
// copied before Send returns, so callers may pass region data directly.
func (c *Ctx) SendProto(dst amnet.NodeID, a, b, verb, spaceID uint64, payload []byte) {
	c.p.selfSent(dst)
	c.p.ep.Send(amnet.Msg{
		Dst: dst, Handler: hProto,
		A: a, B: b, C: verb, D: spaceID,
		Payload: c.p.cloneForSend(payload),
	})
}

// SendComplete sends a completion for the waiter seq on dst, carrying the
// scalar a and an optional payload (copied before Send returns).
func (c *Ctx) SendComplete(dst amnet.NodeID, seq, a uint64, payload []byte) {
	c.p.ep.Send(amnet.Msg{
		Dst: dst, Handler: hComplete,
		A: a, B: seq,
		Payload: c.p.cloneForSend(payload),
	})
}

// Recycle returns a delivered payload to the fabric's buffer pool. Call
// it once the payload's contents have been consumed (for example after
// copying a fetch reply into r.Data); the buffer must not be touched
// afterwards. Recycling is optional — a payload that escapes to longer-
// lived state can simply be retained and left to the garbage collector.
func (c *Ctx) Recycle(payload []byte) { amnet.Recycle(payload) }

// DefaultBarrier blocks until every processor has entered a barrier. It is
// the building block protocols compose their Barrier semantics from: a
// tree round with no payload, tagged by the same program-order cursor
// (collSeq, application-thread-private) as every other collective. The
// arrival climbs once the local subtree has arrived, and the result wave
// coming back down the tree releases the waiter.
func (c *Ctx) DefaultBarrier() {
	p := c.p
	p.collSeq++
	p.coll.CountBarrier()
	c.treeRun(p.collSeq, collOpBarrier, nil)
}

// DefaultLock acquires the home-based queue lock on r.
func (c *Ctx) DefaultLock(r *Region) {
	seq := c.NewWaiter()
	c.p.ep.Send(amnet.Msg{Dst: r.Home, Handler: hLockReq, A: uint64(r.ID), B: seq})
	c.Wait(seq)
}

// DefaultUnlock releases the home-based queue lock on r. The release is
// asynchronous; per-pair FIFO ordering guarantees a subsequent DefaultLock
// from this processor is served after the release.
func (c *Ctx) DefaultUnlock(r *Region) {
	c.p.selfSent(r.Home)
	c.p.ep.Send(amnet.Msg{Dst: r.Home, Handler: hUnlockMsg, A: uint64(r.ID)})
}

// NetStats returns the processor's endpoint traffic counters.
func (c *Ctx) NetStats() *trace.NetStats { return c.p.ep.Stats() }

// cloneForSend prepares a payload for Endpoint.Send. On fabrics that
// copy the payload synchronously (amnet.PayloadCopier) the caller's
// buffer is passed straight through — Send has finished reading it by
// the time it returns, so no defensive clone is needed. On by-reference
// fabrics each send gets its own pooled copy, which also keeps the
// one-owner rule: two destinations must never share a payload slice.
func (p *Proc) cloneForSend(b []byte) []byte {
	if p.fabricCopies {
		return b
	}
	return clone(b)
}

// clone copies b into a pooled buffer (see amnet.Alloc). The copy is
// handed to the fabric or to a waiter, whose consumer may recycle it.
func clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := amnet.Alloc(len(b))
	copy(out, b)
	return out
}
