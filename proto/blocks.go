package proto

import (
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
)

// This file is the protocol building-block library sketched in the
// paper's Section 6 ("Protocol development would also be facilitated by
// the creation of a library of protocol building blocks ... We are
// currently attempting to isolate the primitives needed for such a
// library."). The protocols in this package are built from four blocks,
// so each coherence mechanism is written once:
//
//   - Fetcher: a request/reply fetch of a region's contents from its
//     home, and the home side that serves it — optionally registering
//     the requester as a sharer, and deferring while the home writes;
//   - Drain: an outstanding-acknowledgement counter a processor can block
//     on, the substrate of every split-phase (pipelined) operation;
//   - PushSink: the sharer side of a barrier-time push frame, deferring
//     records for regions the local thread holds open and acknowledging
//     the frame once;
//   - SelfInvalidate: dropping locally cached copies of a space at a
//     synchronization point.
//
// The regions written since the last synchronization point, shipped
// there, are the runtime's write log: a section-end hook marks one with
// core.Ctx.LogWrite (the bracket fast path marks a FastWriteLogged
// region itself), FlushSpace drains it with Ctx.TakeWrites, and every
// space-wide reset drops it.
//
// What no two protocols share stays in the protocol: pipeline's
// whole-message deferral at the home, atomic's home queue, migratory's
// ownership transfer and update's writer-frame transaction.

// Local cache states shared by the pull-based protocols. A region
// starts (and is reset by the runtime to) stInvalid.
const (
	stInvalid int32 = iota
	stValid
)

// Fetcher issues and serves whole-region fetches over one protocol verb:
// the requester sends Verb with a waiter in B, and the home replies with
// a completion carrying the region contents. Keep one per fetch verb.
type Fetcher struct {
	Verb uint64
}

// Fetch makes one round trip to r's home, installs the reply in r.Data
// and recycles the payload. Call from the application thread.
func (f *Fetcher) Fetch(ctx *core.Ctx, r *core.Region) {
	seq := ctx.NewWaiter()
	ctx.SendProto(r.Home, uint64(r.ID), seq, f.Verb, uint64(r.Space.ID), nil)
	m := ctx.Wait(seq)
	copy(r.Data, m.Payload)
	ctx.Recycle(m.Payload)
}

// Pull makes r readable: nothing at the home or on a valid copy,
// otherwise a Fetch that leaves the copy stValid.
func (f *Fetcher) Pull(ctx *core.Ctx, r *core.Region) {
	if r.IsHome() || r.State == stValid {
		return
	}
	f.Fetch(ctx, r)
	r.State = stValid
}

// Serve replies to a fetch at the home; call from Deliver when m.C ==
// Verb.
func (f *Fetcher) Serve(ctx *core.Ctx, r *core.Region, m amnet.Msg) {
	f.mustHome(r, m)
	ctx.SendComplete(m.Src, m.B, 0, r.Data)
}

// ServeSharer is Serve for the push protocols: the requester joins r's
// sharer set. While the home itself holds r in a write section the
// contents are mid-update, so the request queues on r.Dir.Waiting until
// ServeDeferred.
func (f *Fetcher) ServeSharer(ctx *core.Ctx, r *core.Region, m amnet.Msg) {
	f.mustHome(r, m)
	if r.Writers() > 0 {
		r.Dir.Waiting = append(r.Dir.Waiting, core.PendingReq{Src: m.Src, Seq: m.B})
		return
	}
	r.Dir.Sharers.Add(m.Src)
	ctx.SendComplete(m.Src, m.B, 0, r.Data)
}

func (f *Fetcher) mustHome(r *core.Region, m amnet.Msg) {
	if r == nil || !r.IsHome() {
		panic(fmt.Sprintf("proto: fetch verb %d served off-home for %v", f.Verb, core.RegionID(m.A)))
	}
}

// ServeDeferred answers the fetches ServeSharer queued, once the home's
// last write section on r has closed.
func (f *Fetcher) ServeDeferred(ctx *core.Ctx, r *core.Region) {
	if r.Writers() > 0 || len(r.Dir.Waiting) == 0 {
		return
	}
	for _, req := range r.Dir.Waiting {
		r.Dir.Sharers.Add(req.Src)
		ctx.SendComplete(req.Src, req.Seq, 0, r.Data)
	}
	r.Dir.Waiting = nil
}

// Drain counts outstanding acknowledgements and lets the application
// thread block until they all arrive — the split-phase substrate of
// every protocol that ships work ahead of a barrier.
type Drain struct {
	outstanding int
	waitSeq     uint64
}

// Add records n newly outstanding operations.
func (d *Drain) Add(n int) { d.outstanding += n }

// Outstanding returns the current count.
func (d *Drain) Outstanding() int { return d.outstanding }

// Ack records one completion; call from Deliver. It wakes a blocked Wait
// when the count reaches zero.
func (d *Drain) Ack(ctx *core.Ctx) {
	d.outstanding--
	if d.outstanding < 0 {
		panic("proto: drain acknowledged below zero")
	}
	if d.outstanding == 0 && d.waitSeq != 0 {
		seq := d.waitSeq
		d.waitSeq = 0
		ctx.Complete(seq, amnet.Msg{})
	}
}

// Wait blocks the application thread until the count reaches zero.
func (d *Drain) Wait(ctx *core.Ctx) {
	if d.outstanding == 0 {
		return
	}
	d.waitSeq = ctx.NewWaiter()
	ctx.Wait(d.waitSeq)
}

// PushSink applies inbound push frames on a sharer. Each frame is
// acknowledged by one AckVerb message echoing the frame's tag in B.
// Records for regions the local thread holds in an open section are
// deferred in PState and installed by Settle when the section closes;
// the frame's ack goes out after its last deferred record.
type PushSink struct {
	AckVerb uint64
}

// pushPend is a push deferred while its region was in a section.
type pushPend struct {
	payload []byte
	frames  []*pushFrame // push frames this region holds up
}

// pushFrame tracks one partially deferred inbound push frame.
type pushFrame struct {
	src   amnet.NodeID
	space uint64
	tag   uint64
	left  int
}

// Apply installs one push frame's records (call from DeliverBatch) and
// acknowledges it, unless a record had to be deferred.
func (s *PushSink) Apply(ctx *core.Ctx, sp *core.Space, src amnet.NodeID, tag uint64, recs []core.BatchRecord) {
	var pf *pushFrame
	for _, rec := range recs {
		r := rec.R
		if !r.InUse() {
			copy(r.Data, rec.Data)
			r.State = stValid
			continue
		}
		if pf == nil {
			pf = &pushFrame{src: src, space: uint64(sp.ID), tag: tag}
		}
		pf.left++
		pend, _ := r.PState.(*pushPend)
		if pend == nil {
			pend = &pushPend{}
			r.PState = pend
		}
		pend.payload = append(pend.payload[:0], rec.Data...)
		pend.frames = append(pend.frames, pf)
	}
	if pf == nil {
		ctx.SendProto(src, 0, tag, s.AckVerb, uint64(sp.ID), nil)
	}
}

// Settle installs r's deferred push once its last section has closed,
// acknowledging each frame whose last deferred record this was. Call
// from the end-section hooks.
func (s *PushSink) Settle(ctx *core.Ctx, r *core.Region) {
	pend, _ := r.PState.(*pushPend)
	if pend == nil || r.InUse() {
		return
	}
	r.PState = nil
	copy(r.Data, pend.payload)
	r.State = stValid
	for _, pf := range pend.frames {
		pf.left--
		if pf.left == 0 {
			ctx.SendProto(pf.src, 0, pf.tag, s.AckVerb, pf.space, nil)
		}
	}
}

// SelfInvalidate drops every locally cached (non-home) copy in the space
// by resetting its protocol state to stInvalid. Protocols whose readers
// re-fetch on an invalid copy call this at barriers. Each copy's
// fast-path bits are withdrawn first: this is a bulk coherence mutation
// outside any Deliver, so the runtime will not withdraw them for us (see
// core.FastPather).
func SelfInvalidate(ctx *core.Ctx, sp *core.Space) {
	ctx.ForEachRegion(sp, func(r *core.Region) {
		if !r.IsHome() {
			ctx.DisableFast(r)
			r.State = stInvalid
		}
	})
}
