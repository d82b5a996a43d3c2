package proto

import (
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
)

// UpdateInfo returns the registry entry for the dynamic update protocol.
//
// Writers do not acquire exclusive ownership: a completed write section
// marks the region dirty, and the next barrier ships its contents to the
// home, which applies them and forwards the update to every registered
// sharer. Reads hit the continuously updated local copy after a single
// cold fetch. A barrier drains the processor's outstanding updates (each
// is acknowledged once every sharer has applied it), so classic
// phase-parallel programs keep their meaning.
//
// The protocol assumes writes to a region do not race (one writer per
// region at a time, e.g. by ownership convention or phase structure);
// racing whole-region updates are applied in home-arrival order, last
// writer wins. This is the "dynamic update" protocol of Sections 2.1 and
// 3.3, where it speeds EM3D up 3.5x over the invalidation protocol.
func UpdateInfo() core.Info {
	return core.Info{
		Name:        "update",
		New:         func() core.Protocol { return &updateProto{} },
		Optimizable: true,
		Adapt:       core.AdaptHints{Adaptive: true, Pattern: core.PatternSingleWriter},
		// end_read is NOT null: updates that arrive while a region is in
		// an open section are deferred and applied (and acknowledged)
		// when the section closes, so the end handlers are load-bearing.
		// Contrast staticupdate, whose phase contract lets it declare
		// end_read null.
		Null: core.PointSet(0).
			With(core.PointMap).
			With(core.PointUnmap),
	}
}

// Local cache states.
const (
	duInvalid int32 = iota
	duValid
)

// Protocol verbs. duWrite and duPush travel only as aggregated frames
// (DeliverBatch); their acks are space-level.
const (
	duRead    uint64 = iota + 1 // remote → home: register sharer, fetch data (B=seq)
	duWrite                     // writer → home frame: apply and propagate
	duPush                      // home → sharer frame: apply updates (B=tag)
	duPushAck                   // sharer → home: push frame applied (B=tag)
	duAck                       // home → writer: writer frame fully propagated
)

// updateProto is the per-(space, processor) instance.
type updateProto struct {
	core.Base
	outstanding int    // frames this processor has shipped but not had acknowledged
	drainSeq    uint64 // waiter blocked in Barrier/FlushSpace, 0 if none
	nextTag     uint64

	// Writes mark their region dirty (duFlagDirty) and ship at the next
	// barrier as one duWrite frame per home; the home fans each inbound
	// frame's updates out as one duPush frame per sharer. fxs maps a push
	// frame's tag to the writer-frame transaction it belongs to.
	dirty []*core.Region
	batch *core.ProtoBatcher // writer -> home duWrite frames
	push  *core.ProtoBatcher // home -> sharer duPush frames
	fxs   map[uint64]*duFrameXact
}

// duFlagDirty marks a region on the dirty list. A Flags bit, not PState:
// a sharer that writes can simultaneously hold a deferred inbound push
// there.
const duFlagDirty = 1 << 0

// duFrameXact tracks one inbound writer frame at the home: regions not
// yet applied (deferred under an open home section) plus propagated
// push frames not yet acknowledged. The writer's single duAck goes out
// when both reach zero.
type duFrameXact struct {
	writer  amnet.NodeID
	regions int
	await   int
}

// duHome is the home-side per-region state: work deferred while the home
// itself holds the region in an open section.
type duHome struct {
	pendingApply [][]byte          // update payloads awaiting application
	applyFx      []*duFrameXact    // their writer frames' transactions
	pendingReads []core.PendingReq // sharer fetches awaiting a quiet region
}

// duPend is the sharer-side per-region state: an update deferred while the
// local processor holds the region in an open section.
type duPend struct {
	payload []byte
	frames  []*duPushFrame // push frames this region holds up
}

// duPushFrame tracks one partially-deferred inbound push frame on a
// sharer: the frame's single tagged ack goes out once every deferred
// record applied.
type duPushFrame struct {
	home  amnet.NodeID
	space uint64
	tag   uint64
	left  int
}

func (u *updateProto) Name() string { return "update" }

func (u *updateProto) InitSpace(ctx *core.Ctx, sp *core.Space) {
	u.fxs = make(map[uint64]*duFrameXact)
}

func (u *updateProto) StartRead(ctx *core.Ctx, r *core.Region) {
	u.ensureValid(ctx, r)
}

func (u *updateProto) StartWrite(ctx *core.Ctx, r *core.Region) {
	u.ensureValid(ctx, r)
}

// ensureValid fetches a copy from the home on first touch, registering
// this processor as a sharer.
func (u *updateProto) ensureValid(ctx *core.Ctx, r *core.Region) {
	if r.IsHome() || r.State == duValid {
		return
	}
	seq := ctx.NewWaiter()
	ctx.SendProto(r.Home, uint64(r.ID), seq, duRead, uint64(r.Space.ID), nil)
	m := ctx.Wait(seq)
	copy(r.Data, m.Payload)
	ctx.Recycle(m.Payload)
	r.State = duValid
}

func (u *updateProto) EndRead(ctx *core.Ctx, r *core.Region) {
	u.sectionEnd(ctx, r)
}

// EndWrite marks the region dirty; the write ships at the next barrier,
// coalesced with every other write bound for the same home (shipDirty).
// Mid-phase remote readers see the pre-write value — the protocol's
// phase contract only validates reads across barriers, where the frame
// has drained.
func (u *updateProto) EndWrite(ctx *core.Ctx, r *core.Region) {
	if r.Flags&duFlagDirty == 0 {
		r.Flags |= duFlagDirty
		u.dirty = append(u.dirty, r)
	}
	u.sectionEnd(ctx, r)
}

// sectionEnd performs work deferred while the region was in use.
func (u *updateProto) sectionEnd(ctx *core.Ctx, r *core.Region) {
	if r.InUse() {
		return
	}
	if r.IsHome() {
		u.homeDrain(ctx, r)
		return
	}
	if pend, ok := r.PState.(*duPend); ok && pend != nil {
		r.PState = nil
		copy(r.Data, pend.payload)
		r.State = duValid
		for _, pf := range pend.frames {
			pf.left--
			if pf.left == 0 {
				ctx.SendProto(pf.home, 0, pf.tag, duPushAck, pf.space, nil)
			}
		}
	}
}

// homeDrain applies queued updates and serves queued fetches at the home
// once the region is quiet. Each deferred record propagates under its
// writer frame's transaction; the degenerate one-region push frames this
// produces are still correct — deferral at the home is the rare path.
func (u *updateProto) homeDrain(ctx *core.Ctx, r *core.Region) {
	h, _ := r.Dir.PData.(*duHome)
	if h == nil {
		return
	}
	sp := r.Space
	for i, payload := range h.pendingApply {
		fx := h.applyFx[i]
		copy(r.Data, payload)
		u.propagate(ctx, r, fx.writer)
		u.flushPush(ctx, sp, fx)
		fx.regions--
		u.frameDone(ctx, sp, fx)
	}
	h.pendingApply, h.applyFx = nil, nil
	reads := h.pendingReads
	h.pendingReads = nil
	for _, req := range reads {
		r.Dir.Sharers.Add(req.Src)
		ctx.SendComplete(req.Src, req.Seq, 0, r.Data)
	}
}

func (u *updateProto) Barrier(ctx *core.Ctx, sp *core.Space) {
	u.shipDirty(ctx, sp)
	u.drain(ctx)
	ctx.DefaultBarrier()
}

// shipDirty ships the dirty regions: one duWrite frame per remote home
// (one duAck each), plus direct application for regions homed here,
// whose sharer fan-out rides push frames bound to a local writer-frame
// transaction. No-op when nothing is dirty.
func (u *updateProto) shipDirty(ctx *core.Ctx, sp *core.Space) {
	if len(u.dirty) == 0 {
		return
	}
	if u.batch == nil {
		u.batch = ctx.NewBatcher(sp, duWrite)
	}
	var local []*core.Region
	for _, r := range u.dirty {
		r.Flags &^= duFlagDirty
		if r.IsHome() {
			local = append(local, r)
		} else {
			u.batch.Add(r.Home, r)
		}
	}
	u.dirty = u.dirty[:0]
	u.outstanding += u.batch.Flush(ctx, nil)
	if len(local) > 0 {
		// Home-local writes are already in place; propagate them to
		// sharers as one frame transaction so the drain accounting is
		// uniform with remote frames.
		fx := &duFrameXact{writer: ctx.ID()}
		u.outstanding++
		for _, r := range local {
			u.propagate(ctx, r, ctx.ID())
		}
		u.flushPush(ctx, sp, fx)
		u.frameDone(ctx, sp, fx)
	}
}

// propagate queues r's contents for every sharer except the writer on
// the push batcher.
func (u *updateProto) propagate(ctx *core.Ctx, r *core.Region, writer amnet.NodeID) {
	if u.push == nil {
		u.push = ctx.NewBatcher(r.Space, duPush)
	}
	targets := r.Dir.Sharers
	targets.Remove(writer)
	targets.ForEach(func(n amnet.NodeID) { u.push.Add(n, r) })
}

// flushPush sends the pending push frames, binding each frame's tag to
// fx so the acks (one per frame) retire the transaction.
func (u *updateProto) flushPush(ctx *core.Ctx, sp *core.Space, fx *duFrameXact) {
	if u.push == nil {
		u.push = ctx.NewBatcher(sp, duPush)
	}
	fx.await += u.push.Flush(ctx, func(dst amnet.NodeID, regions int) uint64 {
		u.nextTag++
		u.fxs[u.nextTag] = fx
		return u.nextTag
	})
}

// frameDone completes a writer-frame transaction once nothing is
// pending: remote writers get their duAck, the local writer's
// outstanding count drops directly (everything runs under the space's
// engine lock, application thread and pump alike).
func (u *updateProto) frameDone(ctx *core.Ctx, sp *core.Space, fx *duFrameXact) {
	if fx.regions != 0 || fx.await != 0 {
		return
	}
	if fx.writer != ctx.ID() {
		ctx.SendProto(fx.writer, 0, 0, duAck, uint64(sp.ID), nil)
		return
	}
	u.ackOne(ctx)
}

// ackOne retires one outstanding frame, waking a blocked drain.
func (u *updateProto) ackOne(ctx *core.Ctx) {
	u.outstanding--
	if u.outstanding == 0 && u.drainSeq != 0 {
		seq := u.drainSeq
		u.drainSeq = 0
		ctx.Complete(seq, amnet.Msg{})
	}
}

// DeliverBatch handles the two frame kinds. A duWrite frame
// is one writer's barrier-time batch for regions homed here: records
// apply (or defer under an open home section) and propagate to sharers
// as per-sharer duPush frames, all bound to one transaction whose
// completion acks the writer once. A duPush frame is one home's batch
// for this sharer: records apply (or defer through duPend) and the
// frame acks once with its tag.
func (u *updateProto) DeliverBatch(ctx *core.Ctx, sp *core.Space, src amnet.NodeID, verb, tag uint64, recs []core.BatchRecord) {
	switch verb {
	case duWrite:
		fx := &duFrameXact{writer: src}
		for _, rec := range recs {
			r := rec.R
			if r.InUse() {
				h := homeState(r)
				h.pendingApply = append(h.pendingApply, append([]byte(nil), rec.Data...))
				h.applyFx = append(h.applyFx, fx)
				fx.regions++
				continue
			}
			copy(r.Data, rec.Data)
			u.propagate(ctx, r, src)
		}
		u.flushPush(ctx, sp, fx)
		u.frameDone(ctx, sp, fx)
	case duPush:
		var pf *duPushFrame
		for _, rec := range recs {
			r := rec.R
			if r.InUse() {
				if pf == nil {
					pf = &duPushFrame{home: src, space: uint64(sp.ID), tag: tag}
				}
				pf.left++
				pend, _ := r.PState.(*duPend)
				if pend == nil {
					pend = &duPend{}
					r.PState = pend
				}
				pend.payload = append(pend.payload[:0], rec.Data...)
				pend.frames = append(pend.frames, pf)
				continue
			}
			copy(r.Data, rec.Data)
			r.State = duValid
		}
		if pf == nil {
			ctx.SendProto(src, 0, tag, duPushAck, uint64(sp.ID), nil)
		}
	default:
		panic(fmt.Sprintf("proto: update: bad batch verb %d", verb))
	}
}

// drain blocks until every update this processor shipped has been applied
// by all sharers.
func (u *updateProto) drain(ctx *core.Ctx) {
	if u.outstanding == 0 {
		return
	}
	u.drainSeq = ctx.NewWaiter()
	ctx.Wait(u.drainSeq)
}

func (u *updateProto) FlushSpace(ctx *core.Ctx, sp *core.Space) {
	// Ship anything still marked dirty first (ChangeProtocol resets the
	// dirty bookkeeping); after a drain the home copies are authoritative
	// and no protocol traffic is in flight.
	u.shipDirty(ctx, sp)
	u.drain(ctx)
}

// MigrateRegion (core.HomeMigrator) drops r from the dirty list if the
// pre-flip flush somehow left it there: a stale entry would ship the
// next barrier's duWrite to a home that moved away. The home-side
// sharer/deferral state lived in Dir.PData, which the runtime's
// base-state reset already cleared on both the old and new home.
func (u *updateProto) MigrateRegion(ctx *core.Ctx, r *core.Region, oldHome, newHome amnet.NodeID) {
	for i, d := range u.dirty {
		if d == r {
			u.dirty = append(u.dirty[:i], u.dirty[i+1:]...)
			break
		}
	}
}

// FastBits: reads are hit-eligible exactly when the end-of-section drain
// has nothing to do. At the home, StartRead is a no-op and EndRead only
// matters when work was deferred during an open section — so a quiet
// deferral queue makes read brackets free. On a sharer, StartRead is a
// no-op once the copy is valid and EndRead only installs a deferred push
// (PState non-nil). Writes are never eligible: every EndWrite puts the
// region on the dirty list, home included.
func (u *updateProto) FastBits(r *core.Region) core.FastBits {
	if r.IsHome() {
		if h, _ := r.Dir.PData.(*duHome); h != nil && (len(h.pendingApply) > 0 || len(h.pendingReads) > 0) {
			return 0
		}
		return core.FastRead
	}
	if r.State == duValid && r.PState == nil {
		return core.FastRead
	}
	return 0
}

func (u *updateProto) Deliver(ctx *core.Ctx, sp *core.Space, r *core.Region, m amnet.Msg) {
	if r == nil && m.C != duPushAck && m.C != duAck {
		// Frame acks are space-level (A=0): one duPushAck per push frame,
		// one duAck per writer frame.
		panic(fmt.Sprintf("proto: update: proc %d: message %d for unknown region %v", ctx.ID(), m.C, core.RegionID(m.A)))
	}
	switch m.C {
	case duRead:
		if r.Writers() > 0 {
			h := homeState(r)
			h.pendingReads = append(h.pendingReads, core.PendingReq{Src: m.Src, Seq: m.B})
			return
		}
		r.Dir.Sharers.Add(m.Src)
		ctx.SendComplete(m.Src, m.B, 0, r.Data)
	case duPushAck:
		fx, ok := u.fxs[m.B]
		if !ok {
			panic(fmt.Sprintf("proto: update: proc %d: stray push ack tag %d", ctx.ID(), m.B))
		}
		delete(u.fxs, m.B)
		fx.await--
		u.frameDone(ctx, sp, fx)
	case duAck:
		u.ackOne(ctx)
	default:
		panic(fmt.Sprintf("proto: update: bad verb %d", m.C))
	}
}

// homeState lazily allocates the home-side deferred-work state.
func homeState(r *core.Region) *duHome {
	h, _ := r.Dir.PData.(*duHome)
	if h == nil {
		h = &duHome{}
		r.Dir.PData = h
	}
	return h
}
