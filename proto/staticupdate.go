package proto

import (
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
)

// StaticUpdateInfo returns the registry entry for the static update
// protocol — essentially Falsafi et al.'s application-specific protocol
// for EM3D (Section 3.3).
//
// The protocol exploits static access patterns: during the first
// iteration, remote reads fetch from the home and the home records the
// reader in the region's persistent sharer list. A write marks its region
// dirty. At each barrier, every dirty home region is pushed to exactly its
// recorded sharers, then the barrier completes; subsequent iterations
// therefore run without a single read miss.
//
// Writes must be home-local (the EM3D pattern: each processor updates its
// own nodes and reads its neighbors'). The protocol panics on a remote
// write section, making the assumption checkable.
func StaticUpdateInfo() core.Info {
	return core.Info{
		Name:        "staticupdate",
		New:         func() core.Protocol { return &staticUpdateProto{} },
		Optimizable: true,
		Adapt: core.AdaptHints{
			Adaptive:       true,
			Pattern:        core.PatternProducerConsumer,
			HomeWritesOnly: true,
		},
		Null: core.PointSet(0).
			With(core.PointMap).
			With(core.PointUnmap).
			With(core.PointEndRead).
			With(core.PointStartWrite),
	}
}

// Protocol verbs. suPush travels only as an aggregated frame
// (DeliverBatch), acknowledged by one space-level suPushAck.
const (
	suRead    uint64 = iota + 1 // remote → home: register sharer, fetch (B=seq)
	suPush                      // home → sharer frame: barrier-time updates
	suPushAck                   // sharer → home: push frame applied
)

// staticUpdateProto is the per-(space, processor) instance.
type staticUpdateProto struct {
	core.Base
	dirty       []*core.Region // home regions written since the last barrier
	outstanding int            // push frames shipped, not yet acknowledged
	drainSeq    uint64
	batch       *core.ProtoBatcher // barrier push frames (lazily created)
}

// suPend defers a push that arrived while the region was in a section.
type suPend struct {
	payload []byte
	frames  []*suFrame // push frames this region holds up
}

// suFrame tracks one partially-deferred inbound push frame on a sharer:
// the frame's single ack goes out once every deferred record applied.
type suFrame struct {
	src   amnet.NodeID
	space uint64
	left  int
}

func (s *staticUpdateProto) Name() string { return "staticupdate" }

func (s *staticUpdateProto) StartRead(ctx *core.Ctx, r *core.Region) {
	if r.IsHome() || r.State == duValid {
		return
	}
	seq := ctx.NewWaiter()
	ctx.SendProto(r.Home, uint64(r.ID), seq, suRead, uint64(r.Space.ID), nil)
	m := ctx.Wait(seq)
	copy(r.Data, m.Payload)
	ctx.Recycle(m.Payload)
	r.State = duValid
}

func (s *staticUpdateProto) StartWrite(ctx *core.Ctx, r *core.Region) {
	if !r.IsHome() {
		panic(fmt.Sprintf("proto: staticupdate: proc %d: remote write to %v (writes must be home-local)", ctx.ID(), r.ID))
	}
}

func (s *staticUpdateProto) EndWrite(ctx *core.Ctx, r *core.Region) {
	if r.PState == nil {
		r.PState = markerDirty
		s.dirty = append(s.dirty, r)
	}
	if r.Writers() == 0 {
		// Serve sharer fetches that arrived during the write section.
		if q, ok := r.Dir.PData.([]core.PendingReq); ok && len(q) > 0 {
			r.Dir.PData = nil
			for _, req := range q {
				r.Dir.Sharers.Add(req.Src)
				ctx.SendComplete(req.Src, req.Seq, 0, r.Data)
			}
		}
	}
}

func (s *staticUpdateProto) EndRead(ctx *core.Ctx, r *core.Region) {
	s.applyDeferred(ctx, r)
}

// applyDeferred installs a push deferred while the region was in use.
func (s *staticUpdateProto) applyDeferred(ctx *core.Ctx, r *core.Region) {
	if r.InUse() || r.IsHome() {
		return
	}
	if pend, ok := r.PState.(*suPend); ok && pend != nil {
		r.PState = nil
		copy(r.Data, pend.payload)
		r.State = duValid
		for _, f := range pend.frames {
			f.left--
			if f.left == 0 {
				ctx.SendProto(f.src, 0, 0, suPushAck, f.space, nil)
			}
		}
	}
}

// Barrier pushes every dirty region to its recorded sharers, waits for all
// acknowledgements, and then performs the underlying barrier. Pushes
// bound for the same sharer coalesce into one frame with one ack (R
// dirty regions x S sharers collapse to at most S messages).
func (s *staticUpdateProto) Barrier(ctx *core.Ctx, sp *core.Space) {
	if s.batch == nil {
		s.batch = ctx.NewBatcher(sp, suPush)
	}
	for _, r := range s.dirty {
		r.PState = nil
		r.Dir.Sharers.ForEach(func(n amnet.NodeID) { s.batch.Add(n, r) })
	}
	s.dirty = s.dirty[:0]
	s.outstanding += s.batch.Flush(ctx, nil)
	s.drain(ctx)
	ctx.DefaultBarrier()
}

// DeliverBatch applies one barrier push frame: every dirty region
// of one home that this sharer subscribes to, acknowledged with a
// single space-level suPushAck once all records applied — immediately,
// or at section end for records the local thread holds open (those
// defer through suPend with a shared per-frame countdown).
func (s *staticUpdateProto) DeliverBatch(ctx *core.Ctx, sp *core.Space, src amnet.NodeID, verb, tag uint64, recs []core.BatchRecord) {
	if verb != suPush {
		panic(fmt.Sprintf("proto: staticupdate: bad batch verb %d", verb))
	}
	var frame *suFrame
	for _, rec := range recs {
		r := rec.R
		if r.InUse() {
			if frame == nil {
				frame = &suFrame{src: src, space: uint64(sp.ID)}
			}
			frame.left++
			pend, _ := r.PState.(*suPend)
			if pend == nil {
				pend = &suPend{}
				r.PState = pend
			}
			pend.payload = append(pend.payload[:0], rec.Data...)
			pend.frames = append(pend.frames, frame)
			continue
		}
		copy(r.Data, rec.Data)
		r.State = duValid
	}
	if frame == nil {
		ctx.SendProto(src, 0, 0, suPushAck, uint64(sp.ID), nil)
	}
}

func (s *staticUpdateProto) drain(ctx *core.Ctx) {
	if s.outstanding == 0 {
		return
	}
	s.drainSeq = ctx.NewWaiter()
	ctx.Wait(s.drainSeq)
}

func (s *staticUpdateProto) FlushSpace(ctx *core.Ctx, sp *core.Space) {
	// Writes are home-local, so homes are authoritative; just forget the
	// dirty list and make sure no pushes are in flight.
	s.dirty = nil
	s.drain(ctx)
}

// MigrateRegion (core.HomeMigrator) drops r from the dirty list if the
// pre-flip flush somehow left it there: after the flip this processor
// may no longer be r's home, and a barrier push from a stale entry
// would address a directory that moved away. Sharer state needs no
// action — it lives in the directory the runtime reassigned, and the
// flip's base-state reset makes every reader re-fetch from the new
// home (re-registering there as it does).
func (s *staticUpdateProto) MigrateRegion(ctx *core.Ctx, r *core.Region, oldHome, newHome amnet.NodeID) {
	for i, d := range s.dirty {
		if d == r {
			s.dirty = append(s.dirty[:i], s.dirty[i+1:]...)
			break
		}
	}
}

// FastBits: reads are hit-eligible at the home unconditionally (home
// StartRead returns immediately and home EndRead's applyDeferred bails on
// IsHome) and on a sharer whose copy is valid with no deferred push
// (EndRead must install a pending suPend). Writes are never eligible:
// EndWrite is load-bearing at the home — dirty-list bookkeeping plus
// serving fetches deferred during the section — and remote writes panic.
func (s *staticUpdateProto) FastBits(r *core.Region) core.FastBits {
	if r.IsHome() {
		return core.FastRead
	}
	if r.State == duValid && r.PState == nil {
		return core.FastRead
	}
	return 0
}

func (s *staticUpdateProto) Deliver(ctx *core.Ctx, sp *core.Space, r *core.Region, m amnet.Msg) {
	if r == nil && m.C != suPushAck {
		// suPushAck is space-level (A=0): the single ack of a push
		// frame. Everything else names a region.
		panic(fmt.Sprintf("proto: staticupdate: proc %d: message %d for unknown region %v", ctx.ID(), m.C, core.RegionID(m.A)))
	}
	switch m.C {
	case suRead:
		if r.Writers() > 0 {
			q, _ := r.Dir.PData.([]core.PendingReq)
			r.Dir.PData = append(q, core.PendingReq{Src: m.Src, Seq: m.B})
			return
		}
		r.Dir.Sharers.Add(m.Src)
		ctx.SendComplete(m.Src, m.B, 0, r.Data)
	case suPushAck:
		s.outstanding--
		if s.outstanding == 0 && s.drainSeq != 0 {
			seq := s.drainSeq
			s.drainSeq = 0
			ctx.Complete(seq, amnet.Msg{})
		}
	default:
		panic(fmt.Sprintf("proto: staticupdate: bad verb %d", m.C))
	}
}

// markerDirty is a sentinel stored in Region.PState on home regions that
// are on the dirty list.
var markerDirty = new(struct{})
