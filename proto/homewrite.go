package proto

import (
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
)

// HomeWriteInfo returns the registry entry for the owner-writes protocol
// used for Blocked Sparse Cholesky (Section 5.2): "data are written only
// by the processors that created them".
//
// Writes are home-local and perform no coherence actions at all — the
// start_write and end_write handlers are null, so the compiler's direct-
// dispatch pass deletes the calls. Remote readers pull a region's contents
// on first use and cache them; barriers self-invalidate the cached copies
// so the next phase re-reads fresh data. Whole regions move in one message
// (user-specified granularity gives bulk transfer for free), which is why
// the paper found the improvement over the default protocol marginal for
// BSC: bulk transfer, not write optimization, dominates.
func HomeWriteInfo() core.Info {
	return core.Info{
		Name:        "homewrite",
		New:         func() core.Protocol { return &homeWriteProto{fetch: Fetcher{Verb: hwRead}} },
		Optimizable: true,
		Adapt: core.AdaptHints{
			Pattern:        core.PatternHomeWrite,
			HomeWritesOnly: true,
		},
		Null: core.PointSet(0).
			With(core.PointMap).
			With(core.PointUnmap).
			With(core.PointStartWrite).
			With(core.PointEndWrite).
			With(core.PointEndRead),
	}
}

// Protocol verbs.
const hwRead uint64 = 1 // remote → home: fetch (B=seq)

type homeWriteProto struct {
	core.Base
	fetch Fetcher
}

func (h *homeWriteProto) Name() string { return "homewrite" }

func (h *homeWriteProto) StartWrite(ctx *core.Ctx, r *core.Region) {
	if !r.IsHome() {
		panic(fmt.Sprintf("proto: homewrite: proc %d: remote write to %v (writes must be home-local)", ctx.ID(), r.ID))
	}
}

func (h *homeWriteProto) StartRead(ctx *core.Ctx, r *core.Region) { h.fetch.Pull(ctx, r) }

// Barrier drops this processor's cached read copies and synchronizes.
// Invalidating before arrival suffices: the copies are purely local, and
// writers are home-local, so everything a post-barrier read fetches from a
// home is the phase's final value.
func (h *homeWriteProto) Barrier(ctx *core.Ctx, sp *core.Space) {
	SelfInvalidate(ctx, sp)
	ctx.DefaultBarrier()
}

// FastBits: at the home every bracket routine is null or an early return
// (writes are home-local and perform no coherence actions), so both kinds
// are always hit-eligible there. A remote copy supports fast reads once
// fetched; remote writes are a protocol violation and stay on the slow
// path so StartWrite's panic still fires.
func (h *homeWriteProto) FastBits(r *core.Region) core.FastBits {
	if r.IsHome() {
		return core.FastRead | core.FastWrite
	}
	if r.State == stValid {
		return core.FastRead
	}
	return 0
}

func (h *homeWriteProto) Deliver(ctx *core.Ctx, sp *core.Space, r *core.Region, m amnet.Msg) {
	switch m.C {
	case hwRead:
		// Reply immediately: the protocol's phase discipline (writes in
		// one phase, reads after the barrier) means no read overlaps a
		// write section in a correct program, so end_write can stay a
		// true null handler.
		h.fetch.Serve(ctx, r, m)
	default:
		panic(fmt.Sprintf("proto: homewrite: bad verb %d", m.C))
	}
}
