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

// NewWaiter allocates a waiter and returns its sequence number. The
// application thread passes the number in a request message (field B by
// convention) and calls Wait; the reply handler calls Complete. Waiters
// are recycled through a per-processor free list: a sequence number is
// never reused, so nothing addressed to a waiter's previous life can
// reach it.
func (c *Ctx) NewWaiter() uint64 {
	p := c.p
	p.wMu.Lock()
	p.nextWaiter++
	seq := p.nextWaiter
	var w *waiter
	if n := len(p.freeWait); n > 0 {
		w, p.freeWait = p.freeWait[n-1], p.freeWait[:n-1]
	} else {
		w = &waiter{ch: make(chan amnet.Msg, 1)}
	}
	p.waiters[seq] = w
	p.wMu.Unlock()
	return seq
}

// Wait blocks until Complete is called for seq, releasing the caller's
// engine lock (if any) while blocked and reacquiring it before
// returning. Only the application thread may call Wait. The waiter is
// retired here, not in Complete: a handler may complete a waiter in the
// window between the application thread's NewWaiter and its Wait, and
// the entry must still be present when Wait looks it up (the buffered
// channel holds the already-delivered message).
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
	p.wMu.Lock()
	w := p.waiters[seq]
	p.wMu.Unlock()
	if w == nil {
		panic(fmt.Sprintf("core: proc %d: wait on unknown waiter %d", p.id, seq))
	}
	if c.eng != nil {
		c.eng.Unlock()
	}
	if p.direct != nil && len(w.ch) == 0 {
		p.direct.Poll()
	}
	if len(w.ch) == 0 {
		p.ep.Stats().WaitsParked.Add(1)
	}
	m := p.waitSync(w, seq)
	if c.eng != nil {
		c.eng.Lock()
	}
	// Only a Wait that succeeded recycles its waiter, and only with its
	// channel empty (Complete sends under wMu, so the check is exact): with
	// seq gone from the table nothing can send to it again. Failed waits
	// go through retireWaiter and are left to the garbage collector.
	p.wMu.Lock()
	delete(p.waiters, seq)
	if len(w.ch) == 0 {
		p.freeWait = append(p.freeWait, w)
	}
	p.wMu.Unlock()
	return m
}

// waitSync blocks on the waiter's channel, the peer-down signal, and —
// when configured — the synchronization timeout. A completion that
// raced in ahead of a failure signal still wins.
func (p *Proc) waitSync(w *waiter, seq uint64) amnet.Msg {
	if d := p.cl.opts.SyncTimeout; d > 0 {
		t := p.armStall(d)
		defer t.Stop()
		select {
		case m := <-w.ch:
			return m
		case <-p.downCh:
		case <-t.C:
			select {
			case m := <-w.ch:
				return m
			default:
			}
			p.retireWaiter(seq)
			panic(&SyncStallError{Local: int(p.id), After: d})
		}
	} else {
		select {
		case m := <-w.ch:
			return m
		case <-p.downCh:
		}
	}
	// Peer down. Drain a completion that raced in, else fail typed.
	select {
	case m := <-w.ch:
		return m
	default:
	}
	p.retireWaiter(seq)
	panic(&PeerLostError{Local: int(p.id), Peer: int(p.downPeer.Load())})
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

// retireWaiter removes a waiter whose Wait is failing, leaving a
// tombstone so a completion arriving after the failure (a slow but
// alive peer answering just past the stall timeout) does not hit the
// unknown-waiter panic in Complete — the late message is dropped
// instead. Tombstones are never reclaimed: retirement only happens on
// the failure paths, after which the cluster is unusable.
func (p *Proc) retireWaiter(seq uint64) {
	p.wMu.Lock()
	if w := p.waiters[seq]; w != nil {
		// Drop a completion that slipped in between the caller's final
		// drain and this retirement — once the waiter is retired nobody
		// will ever read the channel again.
		select {
		case m := <-w.ch:
			amnet.Recycle(m.Payload)
		default:
		}
	}
	delete(p.waiters, seq)
	if p.retired == nil {
		p.retired = make(map[uint64]struct{})
	}
	p.retired[seq] = struct{}{}
	p.wMu.Unlock()
}

// Complete finishes the waiter seq, handing it m. It is typically called
// from a Deliver handler (for locally served requests it may also be
// called from the application thread). Complete never blocks. A
// completion for a retired waiter (one whose Wait already failed with
// ErrSyncStall or ErrPeerLost) is dropped and its payload recycled;
// completing a waiter that never existed is a protocol bug and panics.
func (c *Ctx) Complete(seq uint64, m amnet.Msg) {
	p := c.p
	p.wMu.Lock()
	w := p.waiters[seq]
	if w == nil {
		_, retired := p.retired[seq]
		p.wMu.Unlock()
		if retired {
			amnet.Recycle(m.Payload)
			return
		}
		panic(fmt.Sprintf("core: proc %d: complete of unknown waiter %d", p.id, seq))
	}
	// Deliver while still holding wMu: retireWaiter runs under the same
	// lock, so the waiter cannot be retired between the lookup above and
	// the send — delivering after unlocking stranded the message (and
	// leaked its pooled payload) in an abandoned channel when Wait
	// failed at just the wrong moment. The channel is buffered for the
	// one completion a waiter expects, so the send never blocks a live
	// waiter; the fallback keeps the never-blocks contract regardless.
	select {
	case w.ch <- m:
	default:
		amnet.Recycle(m.Payload)
	}
	p.wMu.Unlock()
}

// SendProto sends a protocol message. A names the region (0 for space-
// level messages), B carries a waiter sequence when a reply is expected, C
// is the protocol verb and D the space id (used by the destination to
// dispatch when the region is not materialized there). The payload is
// copied before Send returns, so callers may pass region data directly.
func (c *Ctx) SendProto(dst amnet.NodeID, a, b, verb, spaceID uint64, payload []byte) {
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
