package proto

import (
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
)

// AtomicInfo returns the registry entry for the atomic read-modify-write
// protocol, the "better management of accesses to a counter" that speeds
// up TSP in Section 5.2.
//
// A write section acquires the region's home-side queue and fetches the
// current contents in a single round trip; ending the section ships the
// modified contents back and releases the queue in one (asynchronous)
// message, so the home can hand the fresh data to the next waiter
// immediately. Compare the invalidation protocol, where each counter
// bump costs an ownership transfer through whichever processor last
// touched the counter.
//
// Read sections always fetch fresh contents from the home, and every
// read sees a whole released value. The home's thread reads and writes
// its copy without the engine lock, so only that thread writes it: a
// fetch that arrives while the home holds the queue waits for the
// release, and a value a remote holder releases is kept aside until the
// home's next section (or flush) installs it.
func AtomicInfo() core.Info {
	return core.Info{
		Name:        "atomic",
		New:         func() core.Protocol { return newAtomic() },
		Optimizable: false, // RMW sections are ordering-sensitive
		Null: core.PointSet(0).
			With(core.PointMap).
			With(core.PointUnmap).
			With(core.PointEndRead),
	}
}

// Protocol verbs.
const (
	atAcq    uint64 = iota + 1 // requester → home: acquire+fetch (B=seq)
	atRel                      // holder → home: contents + release (payload)
	atRelAck                   // home → ex-holder: release processed
	atGet                      // reader → home: fetch snapshot (B=seq)
)

// atHome is the home-side per-region queue state.
type atHome struct {
	holder  amnet.NodeID // -1 when free
	waiting []core.PendingReq
	rel     []byte // last remote release, when pending
	pending bool   // rel is newer than r.Data
}

// value returns the region's current contents at the home.
func (h *atHome) value(r *core.Region) []byte {
	if h.pending {
		return h.rel
	}
	return r.Data
}

// install copies a pending release into the home copy. Home thread only.
func (h *atHome) install(r *core.Region) {
	if h.pending {
		copy(r.Data, h.rel)
		h.pending = false
	}
}

// atomicProto's drain counts the releases this processor has shipped
// but the home has not yet processed.
type atomicProto struct {
	core.Base
	acq   Fetcher // atAcq: queue for the region and fetch it
	get   Fetcher // atGet: fetch a snapshot
	drain Drain
}

func newAtomic() *atomicProto {
	return &atomicProto{acq: Fetcher{Verb: atAcq}, get: Fetcher{Verb: atGet}}
}

func (a *atomicProto) Name() string { return "atomic" }

// atHomeState returns the home-side queue, creating it lazily (regions
// can also enter the protocol through ChangeProtocol, which resets
// directory state).
func atHomeState(r *core.Region) *atHome {
	h, _ := r.Dir.PData.(*atHome)
	if h == nil {
		h = &atHome{holder: -1}
		r.Dir.PData = h
	}
	return h
}

// StartWrite acquires the home-side queue and fetches the contents: one
// round trip for remote processors, a direct queue operation at the home
// (home accesses cost no messages, as on the paper's hardware).
func (a *atomicProto) StartWrite(ctx *core.Ctx, r *core.Region) {
	if r.IsHome() {
		h := atHomeState(r)
		if h.holder < 0 {
			h.holder = ctx.ID()
		} else {
			// Queue behind the holder until release hands the queue
			// here.
			seq := ctx.NewWaiter()
			h.waiting = append(h.waiting, core.PendingReq{Src: ctx.ID(), Seq: seq})
			ctx.Wait(seq)
		}
		h.install(r)
		return
	}
	a.acq.Fetch(ctx, r)
}

// EndWrite ships the contents back and releases the queue asynchronously;
// the home releases directly.
func (a *atomicProto) EndWrite(ctx *core.Ctx, r *core.Region) {
	if r.IsHome() {
		a.get.ServeDeferred(ctx, r)
		a.release(ctx, r, ctx.ID())
		return
	}
	a.drain.Add(1)
	ctx.SendProto(r.Home, uint64(r.ID), 0, atRel, uint64(r.Space.ID), r.Data)
}

// release hands the region's queue to the next waiter at the home.
// Caller holds the runtime mutex at the home.
func (a *atomicProto) release(ctx *core.Ctx, r *core.Region, from amnet.NodeID) {
	h := atHomeState(r)
	if h.holder != from {
		panic(fmt.Sprintf("proto: atomic: proc %d: release of %v by %d, holder %d", ctx.ID(), r.ID, from, h.holder))
	}
	if len(h.waiting) == 0 {
		h.holder = -1
		return
	}
	next := h.waiting[0]
	h.waiting = h.waiting[1:]
	h.holder = next.Src
	if next.Src == ctx.ID() {
		ctx.Complete(next.Seq, amnet.Msg{})
		return
	}
	ctx.SendComplete(next.Src, next.Seq, 0, h.value(r))
}

// StartRead fetches a fresh snapshot from the home; the home installs
// a pending release.
func (a *atomicProto) StartRead(ctx *core.Ctx, r *core.Region) {
	if r.IsHome() {
		atHomeState(r).install(r)
		return
	}
	a.get.Fetch(ctx, r)
}

func (a *atomicProto) Barrier(ctx *core.Ctx, sp *core.Space) {
	a.drain.Wait(ctx)
	ctx.DefaultBarrier()
}

// FlushSpace waits for this processor's releases, then takes the queue
// of every home region a release may still be bound for, which waits
// that release out and installs it: the home copies are then the base
// state.
func (a *atomicProto) FlushSpace(ctx *core.Ctx, sp *core.Space) {
	a.drain.Wait(ctx)
	ctx.ForEachRegion(sp, func(r *core.Region) {
		if !r.IsHome() {
			return
		}
		if h, _ := r.Dir.PData.(*atHome); h != nil && (h.holder >= 0 || h.pending) {
			a.StartWrite(ctx, r)
			a.release(ctx, r, ctx.ID())
		}
	})
}

// FastBits: only home reads are hit-eligible — home StartRead returns
// immediately when no release is pending (the home copy is then
// authoritative) and EndRead is null. Remote reads always fetch a fresh
// snapshot, and write sections on any processor are queue
// acquire/release transactions, so neither may skip the protocol.
func (a *atomicProto) FastBits(r *core.Region) core.FastBits {
	if !r.IsHome() {
		return 0
	}
	if h, _ := r.Dir.PData.(*atHome); h != nil && h.pending {
		return 0
	}
	return core.FastRead
}

func (a *atomicProto) Deliver(ctx *core.Ctx, sp *core.Space, r *core.Region, m amnet.Msg) {
	if r == nil {
		panic(fmt.Sprintf("proto: atomic: proc %d: message %d for unknown region %v", ctx.ID(), m.C, core.RegionID(m.A)))
	}
	switch m.C {
	case atAcq:
		h := atHomeState(r)
		if h.holder < 0 {
			h.holder = m.Src
			ctx.SendComplete(m.Src, m.B, 0, h.value(r))
			return
		}
		h.waiting = append(h.waiting, core.PendingReq{Src: m.Src, Seq: m.B})
	case atRel:
		h := atHomeState(r)
		h.rel = append(h.rel[:0], m.Payload...)
		h.pending = true
		ctx.SendProto(m.Src, m.A, 0, atRelAck, m.D, nil)
		a.release(ctx, r, m.Src)
	case atRelAck:
		a.drain.Ack(ctx)
	case atGet:
		// While the home holds the queue its thread is writing r.Data,
		// so the fetch waits for the release (ServeDeferred).
		h := atHomeState(r)
		if h.holder == ctx.ID() {
			r.Dir.Waiting = append(r.Dir.Waiting, core.PendingReq{Src: m.Src, Seq: m.B})
			return
		}
		ctx.SendComplete(m.Src, m.B, 0, h.value(r))
	default:
		panic(fmt.Sprintf("proto: atomic: bad verb %d", m.C))
	}
}
