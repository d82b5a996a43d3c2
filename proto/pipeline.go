package proto

import (
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
)

// PipelineInfo returns the registry entry for the write-pipelining
// protocol used for Water's inter-molecular phase (Section 5.2): remote
// write sections accumulate into a zeroed local scratch copy; the
// completed section ships the scratch home asynchronously, where it is
// combined element-wise as float64 addition. Barriers drain the pipeline,
// then self-invalidate cached read copies so the next phase re-reads the
// combined values.
//
// Semantics: regions governed by this protocol are vectors of float64, and
// a write section's meaning is "add my contribution" — exactly the force
// accumulation pattern. Home write sections add directly into the
// authoritative copy. Reads within a phase may observe partial sums;
// phases must be separated by barriers.
func PipelineInfo() core.Info {
	return core.Info{
		Name:        "pipeline",
		New:         func() core.Protocol { return &pipelineProto{fetch: Fetcher{Verb: ppRead}} },
		Optimizable: true,
		Null: core.PointSet(0).
			With(core.PointMap).
			With(core.PointUnmap).
			With(core.PointEndRead),
	}
}

// Protocol verbs.
const (
	ppRead uint64 = iota + 1 // remote → home: fetch (B=seq)
	ppAdd                    // writer → home: combine contribution (payload)
	ppAck                    // home → writer: contribution combined
)

// pipelineProto's drain counts the contributions this processor has
// shipped but the home has not yet combined.
type pipelineProto struct {
	core.Base
	fetch Fetcher
	drain Drain
}

// ppHome is the home-side per-region state: the authoritative bytes saved
// while a home write section accumulates into scratch, plus deliveries
// deferred until the section closes.
type ppHome struct {
	saved    []byte
	deferred []amnet.Msg
}

func (p *pipelineProto) Name() string { return "pipeline" }

func (p *pipelineProto) StartRead(ctx *core.Ctx, r *core.Region) { p.fetch.Pull(ctx, r) }

// StartWrite gives the section a zero-initialized scratch copy everywhere:
// a write section's stores are contributions, combined additively at the
// home. Uniform scratch semantics (home included) let compiled code treat
// "store delta" and "+= delta" identically on every processor.
func (p *pipelineProto) StartWrite(ctx *core.Ctx, r *core.Region) {
	if r.IsHome() {
		if r.Writers() == 0 {
			h := ppHomeState(r)
			h.saved = append(h.saved[:0], r.Data...)
			clear(r.Data)
		}
		return
	}
	clear(r.Data)
	r.State = stInvalid // the scratch is not a readable copy
}

func (p *pipelineProto) EndWrite(ctx *core.Ctx, r *core.Region) {
	if r.IsHome() {
		if r.Writers() > 0 {
			return
		}
		// Combine the scratch into the restored authoritative copy, then
		// apply deliveries that arrived during the section.
		h := ppHomeState(r)
		n := len(r.Data) / 8
		for i := 0; i < n; i++ {
			delta := r.Data.Float64(i)
			r.Data.SetFloat64(i, core.RegionData(h.saved).Float64(i)+delta)
		}
		deferred := h.deferred
		h.deferred = nil
		for _, m := range deferred {
			p.Deliver(ctx, r.Space, r, m)
		}
		return
	}
	p.drain.Add(1)
	ctx.SendProto(r.Home, uint64(r.ID), 0, ppAdd, uint64(r.Space.ID), r.Data)
}

// ppHomeState lazily allocates the home-side section state.
func ppHomeState(r *core.Region) *ppHome {
	h, _ := r.Dir.PData.(*ppHome)
	if h == nil {
		h = &ppHome{}
		r.Dir.PData = h
	}
	return h
}

// Barrier drains the pipeline, self-invalidates cached read copies, and
// synchronizes. Invalidation happens before arrival: these are purely
// local copies, all local sections are closed, and every other processor
// drains its own contributions before arriving, so post-barrier re-reads
// observe the fully combined values.
func (p *pipelineProto) Barrier(ctx *core.Ctx, sp *core.Space) {
	p.drain.Wait(ctx)
	SelfInvalidate(ctx, sp)
	ctx.DefaultBarrier()
}

func (p *pipelineProto) FlushSpace(ctx *core.Ctx, sp *core.Space) {
	p.drain.Wait(ctx)
}

// FastBits: read brackets are free at the home (StartRead and EndRead are
// both no-ops there — deferral is keyed on Writers only) and on a sharer
// with a valid copy (EndRead is a declared null point). Write brackets are
// never eligible: StartWrite swaps in scratch contents and EndWrite
// combines or ships the contribution, on every processor.
func (p *pipelineProto) FastBits(r *core.Region) core.FastBits {
	if r.IsHome() || r.State == stValid {
		return core.FastRead
	}
	return 0
}

func (p *pipelineProto) Deliver(ctx *core.Ctx, sp *core.Space, r *core.Region, m amnet.Msg) {
	if r == nil {
		panic(fmt.Sprintf("proto: pipeline: proc %d: message %d for unknown region %v", ctx.ID(), m.C, core.RegionID(m.A)))
	}
	switch m.C {
	case ppRead, ppAdd:
		// While the home itself is mid-section, r.Data is scratch: defer
		// until EndWrite restores the authoritative copy.
		if r.Writers() > 0 {
			h := ppHomeState(r)
			h.deferred = append(h.deferred, amnet.Msg{Src: m.Src, A: m.A, B: m.B, C: m.C, D: m.D, Payload: append([]byte(nil), m.Payload...)})
			return
		}
		if m.C == ppRead {
			p.fetch.Serve(ctx, r, m)
			return
		}
		// Element-wise float64 combine into the authoritative copy. The
		// home thread reads its copy without the engine lock, so only
		// the elements a contribution changes are written: a home
		// reading elements nobody contributes to this phase (water's
		// positions while its forces accumulate) does not race this.
		n := min(len(r.Data), len(m.Payload)) / 8
		payload := core.RegionData(m.Payload)
		for i := 0; i < n; i++ {
			if d := payload.Float64(i); d != 0 {
				r.Data.SetFloat64(i, r.Data.Float64(i)+d)
			}
		}
		ctx.SendProto(m.Src, m.A, 0, ppAck, m.D, nil)
	case ppAck:
		p.drain.Ack(ctx)
	default:
		panic(fmt.Sprintf("proto: pipeline: bad verb %d", m.C))
	}
}
