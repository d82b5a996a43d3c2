package proto

import (
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
)

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

// writeThrough: EndWrite marks the region dirty and the stores ship at
// the next synchronization point as one wtStore frame per home, each
// acknowledged once.
type writeThrough struct {
	core.Base
	fetch Fetcher
	drain Drain
	batch *core.ProtoBatcher
}

func newWriteThrough() *writeThrough {
	return &writeThrough{fetch: Fetcher{Verb: wtFetch}}
}

func (w *writeThrough) Name() string { return "writethrough" }

func (w *writeThrough) StartRead(ctx *core.Ctx, r *core.Region) { w.fetch.Pull(ctx, r) }

// StartWrite fetches current contents so partial-region writes are sound
// (a writer may touch a few slots only).
func (w *writeThrough) StartWrite(ctx *core.Ctx, r *core.Region) { w.fetch.Pull(ctx, r) }

// EndWrite queues the contents for home, split-phase: the store ships at
// the next synchronization point, coalesced with every other store bound
// for the same home (mid-phase readers see the pre-write value, which
// the protocol's barrier-scoped read validity permits).
func (w *writeThrough) EndWrite(ctx *core.Ctx, r *core.Region) {
	if !r.IsHome() {
		ctx.LogWrite(r)
	}
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

// FlushSpace ships the dirty stores as one wtStore frame per home and
// drains them.
func (w *writeThrough) FlushSpace(ctx *core.Ctx, sp *core.Space) {
	if dirty := ctx.TakeWrites(sp); len(dirty) > 0 {
		if w.batch == nil {
			w.batch = ctx.NewBatcher(sp, wtStore)
		}
		for _, r := range dirty {
			w.batch.Add(r.Home, r)
		}
		w.drain.Add(w.batch.Flush(ctx, nil))
	}
	w.drain.Wait(ctx)
}

// Barrier ships and drains dirty stores, self-invalidates, and
// synchronizes.
func (w *writeThrough) Barrier(ctx *core.Ctx, sp *core.Space) {
	w.FlushSpace(ctx, sp)
	SelfInvalidate(ctx, sp)
	ctx.DefaultBarrier()
}

// FastBits: every bracket routine early-returns at the home (stores land
// there directly), so home brackets of both kinds are hit-eligible. A
// valid remote copy is a read hit and a logged write hit: its EndWrite
// only puts the region on the dirty list.
func (w *writeThrough) FastBits(r *core.Region) core.FastBits {
	if r.IsHome() {
		return core.FastRead | core.FastWrite
	}
	if r.State == stValid {
		return core.FastRead | core.FastWriteLogged
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
