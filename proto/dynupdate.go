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
		New:         func() core.Protocol { return newUpdate() },
		Optimizable: true,
		Adapt:       core.AdaptHints{Pattern: core.PatternSingleWriter},
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

// Protocol verbs. duWrite and duPush travel only as aggregated frames
// (DeliverBatch); their acks are space-level.
const (
	duRead    uint64 = iota + 1 // remote → home: register sharer, fetch data (B=seq)
	duWrite                     // writer → home frame: apply and propagate
	duPush                      // home → sharer frame: apply updates (B=tag)
	duPushAck                   // sharer → home: push frame applied (B=tag)
	duAck                       // home → writer: writer frame fully propagated
)

// updateProto is the per-(space, processor) instance. Writes mark their
// region dirty and ship at the next barrier as one duWrite frame per
// home; the home fans each inbound frame's updates out as one duPush
// frame per sharer. The drain counts the writer frames this processor
// has shipped but not had acknowledged; fxs maps a push frame's tag to
// the writer-frame transaction it belongs to.
type updateProto struct {
	core.Base
	fetch   Fetcher
	sink    PushSink
	drain   Drain
	nextTag uint64
	batch   *core.ProtoBatcher // writer -> home duWrite frames
	push    *core.ProtoBatcher // home -> sharer duPush frames
	fxs     map[uint64]*duFrameXact
}

// duFrameXact tracks one inbound writer frame at the home: regions not
// yet applied (deferred under an open home section) plus propagated
// push frames not yet acknowledged. The writer's single duAck goes out
// when both reach zero.
type duFrameXact struct {
	writer  amnet.NodeID
	regions int
	await   int
}

// duHome is the home-side per-region state: update payloads deferred
// while the home itself holds the region in an open section, with
// their writer frames' transactions. (Deferred sharer fetches queue on
// the directory; see Fetcher.ServeSharer.)
type duHome struct {
	pendingApply [][]byte
	applyFx      []*duFrameXact
}

func newUpdate() *updateProto {
	return &updateProto{
		fetch: Fetcher{Verb: duRead},
		sink:  PushSink{AckVerb: duPushAck},
		fxs:   make(map[uint64]*duFrameXact),
	}
}

func (u *updateProto) Name() string { return "update" }

// StartRead and StartWrite fetch a copy from the home on first touch,
// registering this processor as a sharer.
func (u *updateProto) StartRead(ctx *core.Ctx, r *core.Region)  { u.fetch.Pull(ctx, r) }
func (u *updateProto) StartWrite(ctx *core.Ctx, r *core.Region) { u.fetch.Pull(ctx, r) }

func (u *updateProto) EndRead(ctx *core.Ctx, r *core.Region) {
	u.sectionEnd(ctx, r)
}

// EndWrite marks the region dirty; the write ships at the next barrier,
// coalesced with every other write bound for the same home (FlushSpace).
// Mid-phase remote readers see the pre-write value — the protocol's
// phase contract only validates reads across barriers, where the frame
// has drained.
func (u *updateProto) EndWrite(ctx *core.Ctx, r *core.Region) {
	ctx.LogWrite(r)
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
	u.sink.Settle(ctx, r)
}

// homeDrain applies queued updates and serves queued fetches at the home
// once the region is quiet. Each deferred record propagates under its
// writer frame's transaction; the degenerate one-region push frames this
// produces are still correct — deferral at the home is the rare path.
func (u *updateProto) homeDrain(ctx *core.Ctx, r *core.Region) {
	if h, _ := r.Dir.PData.(*duHome); h != nil {
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
	}
	u.fetch.ServeDeferred(ctx, r)
}

func (u *updateProto) Barrier(ctx *core.Ctx, sp *core.Space) {
	u.FlushSpace(ctx, sp)
	ctx.DefaultBarrier()
}

// FlushSpace ships the dirty regions and blocks until every update this
// processor shipped has been applied by all sharers: one duWrite frame
// per remote home (one duAck each), plus direct application for regions
// homed here, whose sharer fan-out rides push frames bound to a local
// writer-frame transaction. After it the home copies are authoritative
// and no protocol traffic is in flight.
func (u *updateProto) FlushSpace(ctx *core.Ctx, sp *core.Space) {
	if dirty := ctx.TakeWrites(sp); len(dirty) > 0 {
		if u.batch == nil {
			u.batch = ctx.NewBatcher(sp, duWrite)
		}
		var local *duFrameXact
		for _, r := range dirty {
			if !r.IsHome() {
				u.batch.Add(r.Home, r)
				continue
			}
			// Home-local writes are already in place; propagate them
			// to sharers as one frame transaction so the drain
			// accounting is uniform with remote frames.
			if local == nil {
				local = &duFrameXact{writer: ctx.ID()}
				u.drain.Add(1)
			}
			u.propagate(ctx, r, ctx.ID())
		}
		u.drain.Add(u.batch.Flush(ctx, nil))
		if local != nil {
			u.flushPush(ctx, sp, local)
			u.frameDone(ctx, sp, local)
		}
	}
	u.drain.Wait(ctx)
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
// pending: remote writers get their duAck, the local writer's drain
// drops directly (everything runs under the space's engine lock,
// application thread and pump alike).
func (u *updateProto) frameDone(ctx *core.Ctx, sp *core.Space, fx *duFrameXact) {
	if fx.regions != 0 || fx.await != 0 {
		return
	}
	if fx.writer != ctx.ID() {
		ctx.SendProto(fx.writer, 0, 0, duAck, uint64(sp.ID), nil)
		return
	}
	u.drain.Ack(ctx)
}

// DeliverBatch handles the two frame kinds. A duWrite frame is one
// writer's barrier-time batch for regions homed here: records apply (or
// defer under an open home section) and propagate to sharers as
// per-sharer duPush frames, all bound to one transaction whose
// completion acks the writer once. A duPush frame is one home's batch
// for this sharer, applied by the push sink and acked once with its
// tag.
func (u *updateProto) DeliverBatch(ctx *core.Ctx, sp *core.Space, src amnet.NodeID, verb, tag uint64, recs []core.BatchRecord) {
	switch verb {
	case duWrite:
		fx := &duFrameXact{writer: src}
		for _, rec := range recs {
			r := rec.R
			if r.InUse() {
				h, _ := r.Dir.PData.(*duHome)
				if h == nil {
					h = &duHome{}
					r.Dir.PData = h
				}
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
		u.sink.Apply(ctx, sp, src, tag, recs)
	default:
		panic(fmt.Sprintf("proto: update: bad batch verb %d", verb))
	}
}

// FastBits: brackets are hit-eligible exactly when the end-of-section
// drain has nothing to do. At the home, StartRead and StartWrite are
// no-ops and the end hooks only matter when work was deferred during an
// open section — so a quiet deferral queue makes read brackets free. On
// a sharer, the starts are no-ops once the copy is valid and the ends
// only settle a deferred push (PState non-nil). EndWrite also puts the
// region on the dirty list, so writes are logged hits.
func (u *updateProto) FastBits(r *core.Region) core.FastBits {
	if r.IsHome() {
		if h, _ := r.Dir.PData.(*duHome); h != nil && len(h.pendingApply) > 0 || len(r.Dir.Waiting) > 0 {
			return 0
		}
		return core.FastRead | core.FastWriteLogged
	}
	if r.State == stValid && r.PState == nil {
		return core.FastRead | core.FastWriteLogged
	}
	return 0
}

func (u *updateProto) Deliver(ctx *core.Ctx, sp *core.Space, r *core.Region, m amnet.Msg) {
	switch m.C {
	case duRead:
		u.fetch.ServeSharer(ctx, r, m)
	case duPushAck:
		// Frame acks are space-level (A=0): one duPushAck per push
		// frame, one duAck per writer frame.
		fx, ok := u.fxs[m.B]
		if !ok {
			panic(fmt.Sprintf("proto: update: proc %d: stray push ack tag %d", ctx.ID(), m.B))
		}
		delete(u.fxs, m.B)
		fx.await--
		u.frameDone(ctx, sp, fx)
	case duAck:
		u.drain.Ack(ctx)
	default:
		panic(fmt.Sprintf("proto: update: bad verb %d", m.C))
	}
}
