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
// library."). The blocks isolate the three mechanisms every protocol in
// this library is built from:
//
//   - Fetcher: a request/reply fetch of a region's contents from its
//     home, optionally registering the requester in the home's sharer
//     set;
//   - Drain: an outstanding-acknowledgement counter a processor can block
//     on, the substrate of every split-phase (pipelined) operation;
//   - SelfInvalidator: dropping locally cached copies of a space at a
//     synchronization point.
//
// The writethrough protocol below is written entirely from these blocks;
// the hand-written protocols in this package predate the block library
// and spell the same patterns out longhand.

// Fetcher serves and issues whole-region fetches over a pair of verbs.
// Embed one per protocol and give it two verb numbers from the protocol's
// verb space.
type Fetcher struct {
	// ReqVerb and the implicit completion path define the wire protocol:
	// requester sends ReqVerb with a waiter in B; the home replies with a
	// completion carrying the region contents.
	ReqVerb uint64
	// RegisterSharer controls whether the home records the requester in
	// the region's directory sharer set (update-family protocols want
	// this; pull-only protocols do not).
	RegisterSharer bool
}

// Fetch blocks until the region's home contents are installed locally.
// Call from StartRead/StartWrite hooks (application thread).
func (f *Fetcher) Fetch(ctx *core.Ctx, r *core.Region) {
	seq := ctx.NewWaiter()
	ctx.SendProto(r.Home, uint64(r.ID), seq, f.ReqVerb, uint64(r.Space.ID), nil)
	m := ctx.Wait(seq)
	copy(r.Data, m.Payload)
	ctx.Recycle(m.Payload)
}

// Serve handles the home side of a fetch; call from Deliver when m.C ==
// ReqVerb.
func (f *Fetcher) Serve(ctx *core.Ctx, r *core.Region, m amnet.Msg) {
	if r == nil || !r.IsHome() {
		panic(fmt.Sprintf("proto: fetch served off-home for %v", core.RegionID(m.A)))
	}
	if f.RegisterSharer {
		r.Dir.Sharers.Add(m.Src)
	}
	ctx.SendComplete(m.Src, m.B, 0, r.Data)
}

// Drain counts outstanding acknowledgements and lets the application
// thread block until they all arrive — the split-phase substrate used by
// the pipeline, update and static update protocols' barriers.
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

// SelfInvalidate drops every locally cached (non-home) copy in the space
// by resetting its protocol state to zero. Protocols whose readers
// re-fetch on state zero call this at barriers. Each copy's fast-path
// bits are withdrawn first: this is a bulk coherence mutation outside
// any Deliver, so the runtime will not withdraw them for us (see
// core.FastPather).
func SelfInvalidate(ctx *core.Ctx, sp *core.Space) {
	ctx.ForEachRegion(sp, func(r *core.Region) {
		if !r.IsHome() {
			ctx.DisableFast(r)
			r.State = 0
		}
	})
}

// ---------------------------------------------------------------------
// writethrough: a protocol composed from the blocks.
// ---------------------------------------------------------------------

// WriteThroughInfo returns the registry entry for the write-through
// protocol: every completed write section ships the region home at the
// next synchronization point (split-phase, drained at barriers); readers
// pull on demand and self-invalidate at barriers. It suits data with
// scattered writers and phase-structured readers — a simpler cousin of
// the dynamic update protocol for cases with few readers, where pushing
// updates to sharers would waste bandwidth.
func WriteThroughInfo() core.Info {
	return core.Info{
		Name:        "writethrough",
		New:         func() core.Protocol { return newWriteThrough() },
		Optimizable: true,
		Null: core.PointSet(0).
			With(core.PointMap).
			With(core.PointUnmap).
			With(core.PointEndRead),
	}
}

// Protocol verbs.
const (
	wtFetch uint64 = iota + 1 // reader → home: pull contents
	wtStore                   // writer → home frame: install contents
	wtAck                     // home → writer: frame installed
)

type writeThrough struct {
	core.Base
	fetch Fetcher
	drain Drain
	// EndWrite marks the region dirty and the store ships at the next
	// synchronization point as one wtStore frame per home, each
	// acknowledged once.
	dirty []*core.Region
	batch *core.ProtoBatcher
}

// wtFlagDirty marks a region on the dirty list.
const wtFlagDirty = 1 << 0

func newWriteThrough() *writeThrough {
	return &writeThrough{fetch: Fetcher{ReqVerb: wtFetch}}
}

func (w *writeThrough) Name() string { return "writethrough" }

func (w *writeThrough) StartRead(ctx *core.Ctx, r *core.Region) {
	if r.IsHome() || r.State == duValid {
		return
	}
	w.fetch.Fetch(ctx, r)
	r.State = duValid
}

// StartWrite fetches current contents so partial-region writes are sound
// (a writer may touch a few slots only).
func (w *writeThrough) StartWrite(ctx *core.Ctx, r *core.Region) {
	if r.IsHome() || r.State == duValid {
		return
	}
	w.fetch.Fetch(ctx, r)
	r.State = duValid
}

// EndWrite queues the contents for home, split-phase: the store ships at
// the next synchronization point, coalesced with every other store bound
// for the same home (mid-phase readers see the pre-write value, which
// the protocol's barrier-scoped read validity permits).
func (w *writeThrough) EndWrite(ctx *core.Ctx, r *core.Region) {
	if r.IsHome() {
		return
	}
	if r.Flags&wtFlagDirty == 0 {
		r.Flags |= wtFlagDirty
		w.dirty = append(w.dirty, r)
	}
}

// shipDirty flushes the dirty regions as one wtStore frame per home.
func (w *writeThrough) shipDirty(ctx *core.Ctx, sp *core.Space) {
	if len(w.dirty) == 0 {
		return
	}
	if w.batch == nil {
		w.batch = ctx.NewBatcher(sp, wtStore)
	}
	for _, r := range w.dirty {
		r.Flags &^= wtFlagDirty
		w.batch.Add(r.Home, r)
	}
	w.dirty = w.dirty[:0]
	w.drain.Add(w.batch.Flush(ctx, nil))
}

// DeliverBatch installs one writer's stores and acks the frame once.
// Stores apply unconditionally (last writer wins; the protocol does not
// defer at the home).
func (w *writeThrough) DeliverBatch(ctx *core.Ctx, sp *core.Space, src amnet.NodeID, verb, tag uint64, recs []core.BatchRecord) {
	if verb != wtStore {
		panic(fmt.Sprintf("proto: writethrough: bad batch verb %d", verb))
	}
	for _, rec := range recs {
		if !rec.R.IsHome() {
			panic(fmt.Sprintf("proto: writethrough: batched store off-home for %v", rec.R.ID))
		}
		copy(rec.R.Data, rec.Data)
	}
	ctx.SendProto(src, 0, 0, wtAck, uint64(sp.ID), nil)
}

// Barrier ships dirty stores, drains them, self-invalidates, and
// synchronizes.
func (w *writeThrough) Barrier(ctx *core.Ctx, sp *core.Space) {
	w.shipDirty(ctx, sp)
	w.drain.Wait(ctx)
	SelfInvalidate(ctx, sp)
	ctx.DefaultBarrier()
}

func (w *writeThrough) FlushSpace(ctx *core.Ctx, sp *core.Space) {
	w.shipDirty(ctx, sp)
	w.drain.Wait(ctx)
}

// MigrateRegion (core.HomeMigrator) drops r from the dirty list if the
// pre-flip flush somehow left it there: a stale entry would ship the
// next synchronization point's wtStore to a home that moved away.
func (w *writeThrough) MigrateRegion(ctx *core.Ctx, r *core.Region, oldHome, newHome amnet.NodeID) {
	for i, d := range w.dirty {
		if d == r {
			w.dirty = append(w.dirty[:i], w.dirty[i+1:]...)
			break
		}
	}
}

// FastBits: every bracket routine early-returns at the home (stores land
// there directly), so home brackets of both kinds are hit-eligible. A
// remote copy supports fast reads once valid; remote writes always put
// the region on the dirty list from EndWrite and stay on the slow path.
func (w *writeThrough) FastBits(r *core.Region) core.FastBits {
	if r.IsHome() {
		return core.FastRead | core.FastWrite
	}
	if r.State == duValid {
		return core.FastRead
	}
	return 0
}

func (w *writeThrough) Deliver(ctx *core.Ctx, sp *core.Space, r *core.Region, m amnet.Msg) {
	switch m.C {
	case wtFetch:
		w.fetch.Serve(ctx, r, m)
	case wtAck:
		w.drain.Ack(ctx)
	default:
		panic(fmt.Sprintf("proto: writethrough: bad verb %d", m.C))
	}
}
