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
		New:         func() core.Protocol { return newStaticUpdate() },
		Optimizable: true,
		Adapt: core.AdaptHints{
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

// staticUpdateProto is the per-(space, processor) instance. The space's
// write log (Ctx.LogWrite) holds the home regions written since the
// last barrier.
type staticUpdateProto struct {
	core.Base
	fetch Fetcher
	sink  PushSink
	drain Drain
	batch *core.ProtoBatcher // barrier push frames (lazily created)
}

func newStaticUpdate() *staticUpdateProto {
	return &staticUpdateProto{fetch: Fetcher{Verb: suRead}, sink: PushSink{AckVerb: suPushAck}}
}

func (s *staticUpdateProto) Name() string { return "staticupdate" }

func (s *staticUpdateProto) StartRead(ctx *core.Ctx, r *core.Region) { s.fetch.Pull(ctx, r) }

func (s *staticUpdateProto) StartWrite(ctx *core.Ctx, r *core.Region) {
	if !r.IsHome() {
		panic(fmt.Sprintf("proto: staticupdate: proc %d: remote write to %v (writes must be home-local)", ctx.ID(), r.ID))
	}
}

// EndWrite marks the region dirty and serves sharer fetches that
// arrived during the write section.
func (s *staticUpdateProto) EndWrite(ctx *core.Ctx, r *core.Region) {
	ctx.LogWrite(r)
	s.fetch.ServeDeferred(ctx, r)
}

func (s *staticUpdateProto) EndRead(ctx *core.Ctx, r *core.Region) { s.sink.Settle(ctx, r) }

// FlushSpace pushes every dirty region to its recorded sharers and
// waits for all acknowledgements. Pushes bound for the same sharer
// coalesce into one frame with one ack (R dirty regions x S sharers
// collapse to at most S messages).
func (s *staticUpdateProto) FlushSpace(ctx *core.Ctx, sp *core.Space) {
	if s.batch == nil {
		s.batch = ctx.NewBatcher(sp, suPush)
	}
	for _, r := range ctx.TakeWrites(sp) {
		r.Dir.Sharers.ForEach(func(n amnet.NodeID) { s.batch.Add(n, r) })
	}
	s.drain.Add(s.batch.Flush(ctx, nil))
	s.drain.Wait(ctx)
}

// Barrier pushes and drains, then performs the underlying barrier.
func (s *staticUpdateProto) Barrier(ctx *core.Ctx, sp *core.Space) {
	s.FlushSpace(ctx, sp)
	ctx.DefaultBarrier()
}

// DeliverBatch applies one barrier push frame: every dirty region of
// one home that this sharer subscribes to.
func (s *staticUpdateProto) DeliverBatch(ctx *core.Ctx, sp *core.Space, src amnet.NodeID, verb, tag uint64, recs []core.BatchRecord) {
	if verb != suPush {
		panic(fmt.Sprintf("proto: staticupdate: bad batch verb %d", verb))
	}
	s.sink.Apply(ctx, sp, src, tag, recs)
}

// FastBits: reads are hit-eligible at the home unconditionally (home
// StartRead returns immediately and home EndRead has no deferred push
// to settle) and on a sharer whose copy is valid with no deferred push
// (EndRead must settle it). Home writes are logged hits while no fetch
// waits on the directory: EndWrite then only marks the region dirty.
// A fetch deferred during the section withdraws the bit, so the close
// goes slow and serves it; remote writes panic.
func (s *staticUpdateProto) FastBits(r *core.Region) core.FastBits {
	if r.IsHome() {
		if len(r.Dir.Waiting) > 0 {
			return core.FastRead
		}
		return core.FastRead | core.FastWriteLogged
	}
	if r.State == stValid && r.PState == nil {
		return core.FastRead
	}
	return 0
}

func (s *staticUpdateProto) Deliver(ctx *core.Ctx, sp *core.Space, r *core.Region, m amnet.Msg) {
	switch m.C {
	case suRead:
		s.fetch.ServeSharer(ctx, r, m)
	case suPushAck:
		// Space-level (A=0): the single ack of a push frame.
		s.drain.Ack(ctx)
	default:
		panic(fmt.Sprintf("proto: staticupdate: bad verb %d", m.C))
	}
}
