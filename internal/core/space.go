package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/acedsm/ace/internal/trace"
)

// Space is a named allocation arena with an associated protocol: the
// paper's central abstraction for binding protocols to data structures.
type Space struct {
	// ID is the space's index, identical on every processor (spaces are
	// created collectively). Table slots are recycled by FreeSpace, so
	// an ID alone does not name a space across its whole lifetime — the
	// (ID, Gen) pair does (see Ref).
	ID int
	// Gen is the table slot's generation at creation, bumped every time
	// the slot is freed. A SpaceRef carrying an older generation is
	// stale and refuses to resolve (SpaceByRef), so recycled slots never
	// alias.
	Gen uint64
	// ProtoName is the current protocol's registered name.
	ProtoName string
	// Proto is this processor's instance of the protocol.
	Proto Protocol
	// Epoch increments on every ChangeProtocol.
	Epoch int
	// PData is arbitrary per-space protocol data (for example a static
	// update protocol's sharer lists).
	PData any

	proc *Proc

	// eng is the space's engine lock: it serializes the protocol
	// instance and the protocol-owned fields of the space's regions
	// between the application thread's slow-path operations and Deliver,
	// on whichever goroutine dispatches it. ProtoName/Proto/Epoch/PData
	// mutate only under it (by ChangeProtocol).
	eng sync.Mutex
	// ctx is the Ctx bound to eng: protocol routines of this space run
	// with it so ctx.Wait releases the engine while blocked.
	ctx *Ctx
	// fp is the protocol's fast-path view, nil when the protocol does
	// not implement FastPather.
	fp FastPather
	// null is the current protocol's registered Info.Null. Map and Unmap
	// read it without the engine: like every protocol installation it
	// is written by the application thread (space creation,
	// ChangeProtocol, RestoreCheckpoint), the only thread that maps.
	null PointSet
	// adapt is the adaptive controller's per-space state, created at the
	// space's first barrier when Options.Adapt is set. Atomic only so
	// Proc.Snapshot can read the published stats concurrently; all other
	// access is from the application thread.
	adapt atomic.Pointer[adaptState]

	// homeIn counts protocol messages delivered to regions homed at this
	// processor since the controller's last epoch snapshot; regIn breaks
	// the count down per region so the controller can nominate the
	// hottest one for re-homing. Both under eng, maintained only when
	// migration is enabled (Cluster.migrate).
	homeIn uint64
	regIn  map[RegionID]uint64

	// dead is set by FreeSpace once the space has been flushed and its
	// slot recycled; allocation and lookup paths check it lock-free.
	dead atomic.Bool
}

// install makes info's protocol the space's: a fresh instance, its
// fast-path view and its null points. Caller holds eng, or is creating
// the space.
func (sp *Space) install(info Info) {
	sp.Proto = info.New()
	sp.ProtoName = info.Name
	sp.fp, _ = sp.Proto.(FastPather)
	sp.null = info.Null
}

// Ref returns the space's generation-tagged identifier, the handle a
// layer above the runtime (a session gateway mapping rooms to spaces)
// holds across the space's lifetime. Identical on every processor.
func (sp *Space) Ref() SpaceRef { return SpaceRef{ID: sp.ID, Gen: sp.Gen} }

// Freed reports whether the space has been destroyed by FreeSpace.
func (sp *Space) Freed() bool { return sp.dead.Load() }

// countHomeIn charges n delivered protocol messages to the home region
// id. Caller holds sp.eng.
func (sp *Space) countHomeIn(id RegionID, n uint64) {
	sp.homeIn += n
	if sp.regIn == nil {
		sp.regIn = make(map[RegionID]uint64)
	}
	sp.regIn[id] += n
}

// refreshFast recomputes and publishes r's fast-path eligibility bits
// from the space's protocol. Caller holds sp.eng. Runtimes call it after
// every protocol invocation that can change r's coherence state; bulk
// operations that mutate other regions use Ctx.RefreshFast per region.
func (sp *Space) refreshFast(r *Region) {
	var bits FastBits
	if sp.fp != nil {
		bits = sp.fp.FastBits(r)
	}
	r.publishFast(bits)
}

// addSpace creates a space locally, reusing the lowest freed table slot
// if one exists. Callers guarantee the collective discipline (all
// processors create and free spaces in the same order), which keeps the
// chosen slot and its generation identical everywhere.
func (p *Proc) addSpace(protoName string) *Space {
	info, ok := p.cl.reg.Lookup(protoName)
	if !ok {
		panic(fmt.Sprintf("core: unknown protocol %q", protoName))
	}
	p.spaceMu.Lock()
	var cur []*Space
	if sps := p.spaces.Load(); sps != nil {
		cur = *sps
	}
	slot := -1
	if len(p.spaceFree) > 0 {
		slot = p.spaceFree[0]
		p.spaceFree = p.spaceFree[1:]
	}
	grown := make([]*Space, len(cur), len(cur)+1)
	copy(grown, cur)
	if slot < 0 {
		slot = len(cur)
		grown = append(grown, nil)
	}
	for len(p.slotGen) <= slot {
		p.slotGen = append(p.slotGen, 0)
	}
	sp := &Space{
		ID:   slot,
		Gen:  p.slotGen[slot],
		proc: p,
	}
	sp.ctx = &Ctx{p: p, eng: &sp.eng}
	sp.install(info)
	grown[slot] = sp
	p.spaces.Store(&grown)
	p.spaceMu.Unlock()
	p.rec.AddSpace(sp.ID, protoName)
	// On a recycled slot AddSpace is a no-op (counters accumulate per
	// slot); record the occupant's protocol explicitly.
	p.rec.SetProtocol(sp.ID, protoName)
	sp.eng.Lock()
	sp.Proto.InitSpace(sp.ctx, sp)
	sp.eng.Unlock()
	return sp
}

// NewSpace creates a new space governed by the named protocol. It is a
// collective operation: every processor must call it, in the same program
// order, with the same protocol name (verified at runtime).
func (p *Proc) NewSpace(protoName string) (*Space, error) {
	if _, ok := p.cl.reg.Lookup(protoName); !ok {
		return nil, fmt.Errorf("core: unknown protocol %q", protoName)
	}
	if err := p.verifyCollective("newspace:" + protoName); err != nil {
		return nil, err
	}
	return p.addSpace(protoName), nil
}

// ChangeProtocol changes sp's protocol. It is a collective operation. The
// semantics follow the paper: the old protocol flushes every region of the
// space to the base state (authoritative data at the home, no cached
// copies), then the new protocol is initialized.
func (p *Proc) ChangeProtocol(sp *Space, protoName string) error {
	info, ok := p.cl.reg.Lookup(protoName)
	if !ok {
		return fmt.Errorf("core: unknown protocol %q", protoName)
	}
	if err := p.verifyCollective(fmt.Sprintf("chgproto:%d:%s", sp.ID, protoName)); err != nil {
		return err
	}
	t := p.rec.Begin()
	p.ctx.DefaultBarrier()
	sp.eng.Lock()
	sp.Proto.FlushSpace(sp.ctx, sp)
	sp.eng.Unlock()
	p.ctx.DefaultBarrier()
	// All data is now home-valid and no coherence traffic is in flight:
	// reset protocol-owned state. Withdrawing the fast bits here covers
	// any left stale by the flush; the new protocol republishes lazily
	// as brackets take the slow path.
	sp.eng.Lock()
	for _, r := range p.regionList() {
		if r.Space != sp {
			continue
		}
		r.State = 0
		r.Flags = 0
		r.PState = nil
		r.publishFast(0)
		if r.Dir != nil {
			if len(r.Dir.Waiting) != 0 || r.Dir.Busy {
				panic(fmt.Sprintf("core: proc %d: ChangeProtocol with busy directory on %v", p.id, r.ID))
			}
			r.Dir.ResetCoherence()
		}
	}
	sp.install(info)
	sp.Epoch++
	sp.PData = nil
	p.rec.SetProtocol(sp.ID, protoName)
	sp.Proto.InitSpace(sp.ctx, sp)
	sp.eng.Unlock()
	p.ctx.DefaultBarrier()
	p.rec.End(trace.OpChangeProtocol, sp.ID, t)
	return nil
}
