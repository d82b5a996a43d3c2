package proto

import (
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
)

// MigratoryInfo returns the registry entry for the migratory protocol.
//
// The region migrates, with exclusive ownership, to whichever processor
// accesses it — reads and writes alike. A processor that has the region
// keeps it until another processor asks. This suits data accessed in
// bursts by one processor at a time (task descriptors, per-phase work
// items); for actively shared data it degenerates to ping-pong.
//
// Because the owner always holds the latest data, a writer never needs a
// separate invalidation round: acquiring the region is one home
// transaction.
func MigratoryInfo() core.Info {
	return core.Info{
		Name:        "migratory",
		New:         func() core.Protocol { return &migratoryProto{fetch: Fetcher{Verb: mgReq}} },
		Optimizable: false, // exclusive access ordering is semantically visible
		Adapt:       core.AdaptHints{Pattern: core.PatternMigratory},
		Null: core.PointSet(0).
			With(core.PointMap).
			With(core.PointUnmap),
	}
}

// Local states.
const (
	mgInvalid int32 = iota
	mgOwned
)

// Flag bits.
const (
	mgFlagPendRevoke uint32 = 1 << iota
	mgFlagFetching          // acquire outstanding; a revoke seen now refers
	// to a grant already ordered ahead of it (per-pair FIFO) and must wait
	// for the section it will open.
)

// Protocol verbs.
const (
	mgReq    uint64 = iota + 1 // requester → home: acquire (B=seq)
	mgRevoke                   // home → owner: give the region back
	mgData                     // owner → home: region contents
	mgFlush                    // owner → home: flush at protocol change (B=seq)
)

// Pending request kinds at the home.
const (
	mgkRemote int = iota + 1
	mgkHome
)

type migratoryProto struct {
	core.Base
	fetch Fetcher // mgReq: acquire ownership and the contents
}

func (m *migratoryProto) Name() string { return "migratory" }

func (m *migratoryProto) StartRead(ctx *core.Ctx, r *core.Region)  { m.acquire(ctx, r) }
func (m *migratoryProto) StartWrite(ctx *core.Ctx, r *core.Region) { m.acquire(ctx, r) }

// acquire obtains exclusive ownership of r.
func (m *migratoryProto) acquire(ctx *core.Ctx, r *core.Region) {
	if r.IsHome() {
		d := r.Dir
		for d.Owner >= 0 || d.Busy || len(d.Waiting) > 0 {
			seq := ctx.NewWaiter()
			d.Waiting = append(d.Waiting, core.PendingReq{Kind: mgkHome, Src: ctx.ID(), Seq: seq})
			m.kick(ctx, r)
			ctx.Wait(seq)
		}
		return
	}
	if r.State == mgOwned {
		return
	}
	r.Flags |= mgFlagFetching
	m.fetch.Fetch(ctx, r)
	r.State = mgOwned
	r.Flags &^= mgFlagFetching
}

func (m *migratoryProto) EndRead(ctx *core.Ctx, r *core.Region)  { m.release(ctx, r) }
func (m *migratoryProto) EndWrite(ctx *core.Ctx, r *core.Region) { m.release(ctx, r) }

// release performs deferred revocations once the last section closes, and
// at the home serves queued requests.
func (m *migratoryProto) release(ctx *core.Ctx, r *core.Region) {
	if r.IsHome() {
		m.kick(ctx, r)
		return
	}
	if !r.InUse() && r.Flags&mgFlagPendRevoke != 0 {
		r.Flags &^= mgFlagPendRevoke
		r.State = mgInvalid
		ctx.SendProto(r.Home, uint64(r.ID), 0, mgData, uint64(r.Space.ID), r.Data)
	}
}

// kick serves the home's request queue while possible.
func (m *migratoryProto) kick(ctx *core.Ctx, r *core.Region) {
	d := r.Dir
	for !d.Busy && len(d.Waiting) > 0 {
		req := d.Waiting[0]
		// A remote grant conflicts with open home sections.
		if req.Kind == mgkRemote && r.InUse() {
			return
		}
		d.Waiting = d.Waiting[1:]
		if d.Owner >= 0 {
			d.Busy = true
			d.Cur = req
			ctx.SendProto(d.Owner, uint64(r.ID), 0, mgRevoke, uint64(r.Space.ID), nil)
			return
		}
		m.grant(ctx, r, req)
	}
}

// grant hands the region to the queued requester. The home's copy is
// current (Owner < 0).
func (m *migratoryProto) grant(ctx *core.Ctx, r *core.Region, req core.PendingReq) {
	if req.Kind == mgkHome {
		ctx.Complete(req.Seq, amnet.Msg{})
		return
	}
	r.Dir.Owner = req.Src
	ctx.SendComplete(req.Src, req.Seq, 0, r.Data)
}

// FastBits: while a processor owns the region outright, every bracket is
// a no-op — acquire returns immediately and release has no revocation to
// serve — so both kinds are hit-eligible. At the home that means a
// quiescent directory (no owner, no transfer in flight, nobody queued:
// a queued request makes release's kick load-bearing); on a remote owner
// it means mgOwned with no pending-revoke or in-flight-fetch flag. This
// is independent of Optimizable above: that gates the *compiler's*
// call-deletion, which would lose the section counts these runtime hits
// still maintain.
func (m *migratoryProto) FastBits(r *core.Region) core.FastBits {
	if r.IsHome() {
		d := r.Dir
		if d.Owner >= 0 || d.Busy || len(d.Waiting) > 0 {
			return 0
		}
		return core.FastRead | core.FastWrite
	}
	if r.State == mgOwned && r.Flags == 0 {
		return core.FastRead | core.FastWrite
	}
	return 0
}

func (m *migratoryProto) Deliver(ctx *core.Ctx, sp *core.Space, r *core.Region, msg amnet.Msg) {
	if r == nil {
		panic(fmt.Sprintf("proto: migratory: proc %d: message %d for unknown region %v", ctx.ID(), msg.C, core.RegionID(msg.A)))
	}
	switch msg.C {
	case mgReq:
		r.Dir.Waiting = append(r.Dir.Waiting, core.PendingReq{Kind: mgkRemote, Src: msg.Src, Seq: msg.B})
		m.kick(ctx, r)
	case mgRevoke:
		if r.InUse() || r.Flags&mgFlagFetching != 0 {
			r.Flags |= mgFlagPendRevoke
			return
		}
		r.State = mgInvalid
		ctx.SendProto(msg.Src, msg.A, 0, mgData, msg.D, r.Data)
	case mgData:
		d := r.Dir
		if !d.Busy || d.Owner != msg.Src {
			panic(fmt.Sprintf("proto: migratory: proc %d: stray data from %d on %v", ctx.ID(), msg.Src, r.ID))
		}
		copy(r.Data, msg.Payload)
		d.Owner = -1
		cur := d.Cur
		d.Busy = false
		m.grant(ctx, r, cur)
		m.kick(ctx, r)
	case mgFlush:
		d := r.Dir
		if d.Owner != msg.Src {
			panic(fmt.Sprintf("proto: migratory: proc %d: flush from non-owner %d on %v", ctx.ID(), msg.Src, r.ID))
		}
		copy(r.Data, msg.Payload)
		d.Owner = -1
		ctx.SendComplete(msg.Src, msg.B, 0, nil)
	default:
		panic(fmt.Sprintf("proto: migratory: bad verb %d", msg.C))
	}
}

func (m *migratoryProto) FlushSpace(ctx *core.Ctx, sp *core.Space) {
	var owned []*core.Region
	ctx.ForEachRegion(sp, func(r *core.Region) {
		if r.IsHome() {
			return
		}
		if r.State == mgOwned {
			owned = append(owned, r)
		}
		r.State = mgInvalid
		r.Flags = 0
	})
	for _, r := range owned {
		seq := ctx.NewWaiter()
		ctx.SendProto(r.Home, uint64(r.ID), seq, mgFlush, uint64(sp.ID), r.Data)
		ctx.Wait(seq)
	}
}
