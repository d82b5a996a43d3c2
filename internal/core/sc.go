package core

import (
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
)

// This file implements the runtime's default protocol: a sequentially
// consistent, invalidation-based, home-directory protocol in the style of
// CRL, redesigned as the paper describes (Section 5.1). The protocol keeps
// a directory at each region's home tracking the exclusive owner or the
// sharer set; read and write sections acquire shared or exclusive copies,
// and invalidations arriving while a region is in use are deferred to the
// end of the section.

// Local cache states for remote copies (the home's state is derived from
// its directory).
const (
	scInvalid int32 = iota
	scShared
	scExclusive
)

// Flag bits in Region.Flags.
const (
	scFlagPendInval     uint32 = 1 << iota // invalidate when section ends
	scFlagPendDowngrade                    // write back + drop to shared when write ends
	scFlagPendWbInval                      // write back + invalidate when section ends
	scFlagFetchRead                        // shared fetch outstanding
	scFlagFetchWrite                       // exclusive fetch outstanding
)

// Protocol message verbs (field C of hProto messages).
const (
	scSReq       uint64 = iota + 1 // remote → home: shared copy request
	scWReq                         // remote → home: exclusive copy request
	scInval                        // home → sharer: invalidate
	scInvalAck                     // sharer → home: invalidation done
	scWbReq                        // home → owner: write back, downgrade to shared
	scWbAck                        // owner → home: data, now shared
	scWbInval                      // home → owner: write back and invalidate
	scWbInvalAck                   // owner → home: data, now invalid
	scFlushData                    // remote → home: flush exclusive data (ChangeProtocol)
)

// Pending request kinds at the home.
const (
	pkRemoteRead int = iota + 1
	pkRemoteWrite
	pkHomeRead
	pkHomeWrite
)

// scInfo is the registry entry for the protocol. Sequential consistency
// forbids compiler reordering, so Optimizable is false (Section 4.2).
// Its map and unmap hooks are Base's no-ops and are declared null, which
// lets the runtime skip the engine at those points; every bracket point
// does real work.
func scInfo() Info {
	return Info{
		Name:        "sc",
		New:         func() Protocol { return &SCProtocol{} },
		Optimizable: false,
		Null:        PointSet(0).With(PointMap).With(PointUnmap),
		Adapt:       AdaptHints{Pattern: PatternGeneral},
	}
}

// SCProtocol is the default sequentially consistent invalidation protocol.
// All its state lives in Region/Directory fields, so the struct itself is
// empty.
type SCProtocol struct{ Base }

// Name returns "sc".
func (s *SCProtocol) Name() string { return "sc" }

// StartRead acquires a readable copy of r.
func (s *SCProtocol) StartRead(ctx *Ctx, r *Region) {
	if r.IsHome() {
		s.homeAccess(ctx, r, pkHomeRead)
		return
	}
	if r.State == scInvalid {
		r.Flags |= scFlagFetchRead
		seq := ctx.NewWaiter()
		ctx.SendProto(r.Home, uint64(r.ID), seq, scSReq, uint64(r.Space.ID), nil)
		m := ctx.Wait(seq)
		copy(r.Data, m.Payload)
		ctx.Recycle(m.Payload)
		r.State = scShared
		r.Flags &^= scFlagFetchRead
	}
}

// StartWrite acquires an exclusive copy of r.
func (s *SCProtocol) StartWrite(ctx *Ctx, r *Region) {
	if r.IsHome() {
		s.homeAccess(ctx, r, pkHomeWrite)
		return
	}
	if r.State != scExclusive {
		r.Flags |= scFlagFetchWrite
		seq := ctx.NewWaiter()
		ctx.SendProto(r.Home, uint64(r.ID), seq, scWReq, uint64(r.Space.ID), nil)
		m := ctx.Wait(seq)
		copy(r.Data, m.Payload)
		ctx.Recycle(m.Payload)
		r.State = scExclusive
		r.Flags &^= scFlagFetchWrite
	}
}

// EndRead completes deferred coherence work once the last section closes.
func (s *SCProtocol) EndRead(ctx *Ctx, r *Region) {
	if r.IsHome() {
		s.kick(ctx, r)
		return
	}
	s.remoteSectionEnd(ctx, r)
}

// EndWrite completes deferred coherence work once the last section closes.
func (s *SCProtocol) EndWrite(ctx *Ctx, r *Region) {
	if r.IsHome() {
		s.kick(ctx, r)
		return
	}
	s.remoteSectionEnd(ctx, r)
}

// remoteSectionEnd performs deferred invalidations and writebacks on a
// remote copy whose sections have (partially) closed.
func (s *SCProtocol) remoteSectionEnd(ctx *Ctx, r *Region) {
	if r.Writers() == 0 && r.Flags&scFlagPendDowngrade != 0 {
		r.Flags &^= scFlagPendDowngrade
		r.State = scShared
		ctx.SendProto(r.Home, uint64(r.ID), 0, scWbAck, uint64(r.Space.ID), r.Data)
	}
	if r.InUse() {
		return
	}
	if r.Flags&scFlagPendWbInval != 0 {
		r.Flags &^= scFlagPendWbInval
		r.State = scInvalid
		ctx.SendProto(r.Home, uint64(r.ID), 0, scWbInvalAck, uint64(r.Space.ID), r.Data)
	} else if r.Flags&scFlagPendInval != 0 {
		r.Flags &^= scFlagPendInval
		r.State = scInvalid
		ctx.SendProto(r.Home, uint64(r.ID), 0, scInvalAck, uint64(r.Space.ID), nil)
	}
}

// homeAccess opens a section at the home, waiting for the directory to
// reach a compatible state.
func (s *SCProtocol) homeAccess(ctx *Ctx, r *Region, kind int) {
	d := r.Dir
	for {
		if !d.Busy && len(d.Waiting) == 0 && d.Owner < 0 {
			if kind == pkHomeRead || d.Sharers.Empty() {
				return
			}
		}
		seq := ctx.NewWaiter()
		d.Waiting = append(d.Waiting, PendingReq{Kind: kind, Src: ctx.ID(), Seq: seq})
		s.kick(ctx, r)
		ctx.Wait(seq)
		// The mutex was released during the wait; another request may
		// have slipped in between our grant and our wakeup, so recheck.
	}
}

// kick serves queued directory requests while possible. Caller holds the
// runtime mutex at the home.
func (s *SCProtocol) kick(ctx *Ctx, r *Region) {
	d := r.Dir
	for !d.Busy && len(d.Waiting) > 0 {
		req := d.Waiting[0]
		if !canStart(r, req) {
			return
		}
		// Pop by shifting down, not reslicing: the queue is a few entries
		// at most, and keeping the backing array means the next request
		// does not allocate.
		d.Waiting = d.Waiting[:copy(d.Waiting, d.Waiting[1:])]
		s.startReq(ctx, r, req)
	}
}

// canStart reports whether req conflicts with the home's open sections.
func canStart(r *Region, req PendingReq) bool {
	switch req.Kind {
	case pkRemoteRead:
		return r.Writers() == 0
	case pkRemoteWrite:
		return !r.InUse()
	default: // home-local requests never self-conflict
		return true
	}
}

// startReq begins serving req, either completing it immediately or opening
// a multi-message transaction (d.Busy).
func (s *SCProtocol) startReq(ctx *Ctx, r *Region, req PendingReq) {
	d := r.Dir
	switch req.Kind {
	case pkRemoteRead:
		if d.Owner >= 0 {
			d.Busy = true
			d.Cur = req
			ctx.SendProto(d.Owner, uint64(r.ID), 0, scWbReq, uint64(r.Space.ID), nil)
			return
		}
		s.grantRead(ctx, r, req)
	case pkRemoteWrite:
		if d.Owner >= 0 {
			d.Busy = true
			d.Cur = req
			ctx.SendProto(d.Owner, uint64(r.ID), 0, scWbInval, uint64(r.Space.ID), nil)
			return
		}
		others := d.Sharers
		others.Remove(req.Src)
		if !others.Empty() {
			d.Busy = true
			d.Cur = req
			d.PendingAcks = others.Count()
			others.ForEach(func(n amnet.NodeID) {
				ctx.SendProto(n, uint64(r.ID), 0, scInval, uint64(r.Space.ID), nil)
			})
			return
		}
		s.grantWrite(ctx, r, req)
	case pkHomeRead:
		if d.Owner >= 0 {
			d.Busy = true
			d.Cur = req
			ctx.SendProto(d.Owner, uint64(r.ID), 0, scWbReq, uint64(r.Space.ID), nil)
			return
		}
		ctx.Complete(req.Seq, amnet.Msg{})
	case pkHomeWrite:
		if d.Owner >= 0 {
			d.Busy = true
			d.Cur = req
			ctx.SendProto(d.Owner, uint64(r.ID), 0, scWbInval, uint64(r.Space.ID), nil)
			return
		}
		if !d.Sharers.Empty() {
			d.Busy = true
			d.Cur = req
			d.PendingAcks = d.Sharers.Count()
			d.Sharers.ForEach(func(n amnet.NodeID) {
				ctx.SendProto(n, uint64(r.ID), 0, scInval, uint64(r.Space.ID), nil)
			})
			return
		}
		ctx.Complete(req.Seq, amnet.Msg{})
	default:
		panic(fmt.Sprintf("core: sc: bad request kind %d", req.Kind))
	}
}

// grantRead adds the requester to the sharer set and replies with the home
// copy.
func (s *SCProtocol) grantRead(ctx *Ctx, r *Region, req PendingReq) {
	r.Dir.Sharers.Add(req.Src)
	ctx.SendComplete(req.Src, req.Seq, 0, r.Data)
}

// grantWrite hands the requester exclusive ownership; the home copy
// becomes stale.
func (s *SCProtocol) grantWrite(ctx *Ctx, r *Region, req PendingReq) {
	d := r.Dir
	d.Sharers = 0
	d.Owner = req.Src
	ctx.SendComplete(req.Src, req.Seq, 0, r.Data)
}

// Deliver handles protocol messages: requests and acknowledgements at the
// home, invalidations and writeback requests at remotes.
func (s *SCProtocol) Deliver(ctx *Ctx, sp *Space, r *Region, m amnet.Msg) {
	switch m.C {
	case scSReq:
		s.mustHome(ctx, r, m)
		r.Dir.Waiting = append(r.Dir.Waiting, PendingReq{Kind: pkRemoteRead, Src: m.Src, Seq: m.B})
		s.kick(ctx, r)
	case scWReq:
		s.mustHome(ctx, r, m)
		r.Dir.Waiting = append(r.Dir.Waiting, PendingReq{Kind: pkRemoteWrite, Src: m.Src, Seq: m.B})
		s.kick(ctx, r)
	case scInval:
		s.handleInval(ctx, r, m)
	case scWbReq:
		s.handleWbReq(ctx, r, m)
	case scWbInval:
		s.handleWbInval(ctx, r, m)
	case scInvalAck:
		s.mustHome(ctx, r, m)
		s.ackArrived(ctx, r, false, nil)
	case scWbAck:
		s.mustHome(ctx, r, m)
		s.wbArrived(ctx, r, m, false)
	case scWbInvalAck:
		s.mustHome(ctx, r, m)
		s.wbArrived(ctx, r, m, true)
	case scFlushData:
		s.mustHome(ctx, r, m)
		s.handleFlush(ctx, r, m)
	default:
		panic(fmt.Sprintf("core: sc: bad verb %d", m.C))
	}
}

func (s *SCProtocol) mustHome(ctx *Ctx, r *Region, m amnet.Msg) {
	if r == nil || !r.IsHome() {
		panic(fmt.Sprintf("core: sc: proc %d is not home for message %d on %v", ctx.ID(), m.C, RegionID(m.A)))
	}
}

// handleInval processes an invalidation at a sharer.
func (s *SCProtocol) handleInval(ctx *Ctx, r *Region, m amnet.Msg) {
	if r == nil {
		// The region was never materialized here; acknowledge so the
		// home's count stays right (possible only in protocol-change
		// corner cases, but harmless to handle uniformly).
		ctx.SendProto(m.Src, m.A, 0, scInvalAck, m.D, nil)
		return
	}
	switch {
	case r.InUse() || r.Flags&scFlagFetchRead != 0:
		// Either an open section, or a shared fetch whose grant is
		// already ordered ahead of this invalidation: defer until the
		// section ends.
		r.Flags |= scFlagPendInval
	default:
		// Idle, or an exclusive fetch still waiting for its grant (the
		// upgrade race): drop the shared copy now.
		r.State = scInvalid
		ctx.SendProto(m.Src, m.A, 0, scInvalAck, m.D, nil)
	}
}

// handleWbReq processes a downgrade request at the owner.
func (s *SCProtocol) handleWbReq(ctx *Ctx, r *Region, m amnet.Msg) {
	if r == nil {
		panic(fmt.Sprintf("core: sc: proc %d: downgrade for unknown region %v", ctx.ID(), RegionID(m.A)))
	}
	if r.Writers() > 0 || r.Flags&scFlagFetchWrite != 0 {
		r.Flags |= scFlagPendDowngrade
		return
	}
	r.State = scShared
	ctx.SendProto(m.Src, m.A, 0, scWbAck, m.D, r.Data)
}

// handleWbInval processes a writeback-and-invalidate at the owner.
func (s *SCProtocol) handleWbInval(ctx *Ctx, r *Region, m amnet.Msg) {
	if r == nil {
		panic(fmt.Sprintf("core: sc: proc %d: wbinval for unknown region %v", ctx.ID(), RegionID(m.A)))
	}
	if r.InUse() || r.Flags&scFlagFetchWrite != 0 {
		r.Flags |= scFlagPendWbInval
		return
	}
	r.State = scInvalid
	ctx.SendProto(m.Src, m.A, 0, scWbInvalAck, m.D, r.Data)
}

// ackArrived counts an invalidation acknowledgement toward the current
// transaction.
func (s *SCProtocol) ackArrived(ctx *Ctx, r *Region, _ bool, _ []byte) {
	d := r.Dir
	if !d.Busy || d.PendingAcks <= 0 {
		panic(fmt.Sprintf("core: sc: proc %d: stray invalidation ack on %v", ctx.ID(), r.ID))
	}
	d.PendingAcks--
	if d.PendingAcks > 0 {
		return
	}
	d.Sharers = 0
	cur := d.Cur
	d.Busy = false
	switch cur.Kind {
	case pkRemoteWrite:
		s.grantWrite(ctx, r, cur)
	case pkHomeWrite:
		ctx.Complete(cur.Seq, amnet.Msg{})
	default:
		panic(fmt.Sprintf("core: sc: proc %d: acks for non-write transaction on %v", ctx.ID(), r.ID))
	}
	s.kick(ctx, r)
}

// wbArrived installs a writeback from the owner and finishes the current
// transaction. inval reports whether the owner also invalidated its copy.
func (s *SCProtocol) wbArrived(ctx *Ctx, r *Region, m amnet.Msg, inval bool) {
	d := r.Dir
	if !d.Busy {
		panic(fmt.Sprintf("core: sc: proc %d: stray writeback on %v", ctx.ID(), r.ID))
	}
	copy(r.Data, m.Payload)
	oldOwner := d.Owner
	d.Owner = -1
	if !inval {
		d.Sharers.Add(oldOwner)
	}
	cur := d.Cur
	d.Busy = false
	switch cur.Kind {
	case pkRemoteRead:
		s.grantRead(ctx, r, cur)
	case pkHomeRead:
		ctx.Complete(cur.Seq, amnet.Msg{})
	case pkRemoteWrite:
		// The owner invalidated; grant exclusivity directly (the
		// invariant Owner >= 0 ⇒ Sharers empty makes invalidations
		// unnecessary).
		s.grantWrite(ctx, r, cur)
	case pkHomeWrite:
		ctx.Complete(cur.Seq, amnet.Msg{})
	default:
		panic(fmt.Sprintf("core: sc: proc %d: bad writeback transaction on %v", ctx.ID(), r.ID))
	}
	s.kick(ctx, r)
}

// handleFlush installs flushed data from a remote exclusive copy during a
// protocol change.
func (s *SCProtocol) handleFlush(ctx *Ctx, r *Region, m amnet.Msg) {
	d := r.Dir
	if d.Owner != m.Src {
		panic(fmt.Sprintf("core: sc: proc %d: flush of %v from %d, owner %d", ctx.ID(), r.ID, m.Src, d.Owner))
	}
	copy(r.Data, m.Payload)
	d.Owner = -1
	ctx.SendComplete(m.Src, m.B, 0, nil)
}

// FastBits reports when the runtime may complete brackets on r without
// entering the protocol, implementing FastPather. The invariants:
//
//   - Remote copies: every bracket routine is a no-op exactly when no
//     flag is pending and no fetch is outstanding (Flags == 0) and the
//     state already grants the access — shared grants reads, exclusive
//     grants both. A deferred invalidation (scFlagPendInval et al.)
//     clears eligibility because the section-end check must run.
//   - The home: with the directory quiescent (not Busy, nothing
//     Waiting, no remote owner) homeAccess returns immediately and kick
//     has nothing to serve, so reads are free; writes additionally
//     require no sharers (else StartWrite must invalidate). Anything
//     queued clears eligibility because the end-of-section kick must
//     run — the fast path skipping kick would strand waiters.
//
// The dispatcher withdraws these bits before Deliver mutates the state and
// the runtime republishes after, so a bracket that raced the transition
// either committed against a still-valid word or fell to the slow path.
func (s *SCProtocol) FastBits(r *Region) FastBits {
	if r.IsHome() {
		d := r.Dir
		if d.Busy || len(d.Waiting) > 0 || d.Owner >= 0 {
			return 0
		}
		if d.Sharers.Empty() {
			return FastRead | FastWrite
		}
		return FastRead
	}
	if r.Flags != 0 {
		return 0
	}
	switch r.State {
	case scShared:
		return FastRead
	case scExclusive:
		return FastRead | FastWrite
	}
	return 0
}

// DropCopy discards a clean shared copy, implementing core.Dropper. Only
// quiescent shared copies can be dropped unilaterally: the home may still
// list this processor as a sharer, but a later invalidation simply finds
// the copy already invalid and is acknowledged immediately.
func (s *SCProtocol) DropCopy(ctx *Ctx, r *Region) bool {
	if r.IsHome() || r.InUse() || r.Flags != 0 || r.State != scShared {
		return false
	}
	r.State = scInvalid
	return true
}

// FlushSpace pushes every locally cached exclusive copy home and drops
// shared copies, returning the space to the base state (ChangeProtocol
// semantics, Section 3.1).
func (s *SCProtocol) FlushSpace(ctx *Ctx, sp *Space) {
	var dirty []*Region
	ctx.ForEachRegion(sp, func(r *Region) {
		if r.IsHome() {
			return
		}
		if r.InUse() {
			panic(fmt.Sprintf("core: sc: proc %d: ChangeProtocol with open section on %v", ctx.ID(), r.ID))
		}
		if r.State == scExclusive {
			dirty = append(dirty, r)
		}
		r.State = scInvalid
		r.Flags = 0
	})
	for _, r := range dirty {
		seq := ctx.NewWaiter()
		ctx.SendProto(r.Home, uint64(r.ID), seq, scFlushData, uint64(sp.ID), r.Data)
		ctx.Wait(seq)
	}
}
