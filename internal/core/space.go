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
	// regions is every region of the space this processor has a view
	// of, in creation order. Append-only under eng (GMallocE and
	// materializeAt add to it); FreeSpace drops it with the space.
	regions []*Region
	// batchRecs is decodeBatch's scratch, reused for every aggregate
	// frame under eng. DeliverBatch runs to completion under the engine
	// (a handler never waits), so one frame's records are done with
	// before the next frame's are decoded.
	batchRecs []BatchRecord
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

	// tally holds the untimed operations that took no lock (fast-path
	// hits, Map and Unmap of null hooks) not yet added to the recorder.
	// Application-thread private, so counting them is a plain increment.
	tally opTally
}

// foldEvery is how many untimed lock-free operations a space's tally
// holds before the application thread folds it into the recorder. It
// bounds how far a concurrent Cluster.Metrics scrape can lag behind.
const foldEvery = 1024

// opTally is a space's plain count of operations awaiting a fold: ops
// counts them all, fast the fast-path hits among them, n their total.
type opTally struct {
	ops, fast trace.OpCounts
	n         int
}

// hit records a fast-path completion of op begun at t (the recorder's
// Begin token). Application thread only, like count.
func (sp *Space) hit(op trace.Op, t int64) {
	if t != 0 {
		sp.proc.rec.FastHit(op, sp.ID)
		sp.proc.rec.End(op, sp.ID, t)
		return
	}
	sp.tally.fast[op]++
	sp.count(op, t)
}

// count records op begun at t on a path that took no lock. Untimed, it
// only bumps the tally, folding every foldEvery operations; a timed op
// goes to the recorder directly.
func (sp *Space) count(op trace.Op, t int64) {
	if t != 0 {
		sp.proc.rec.End(op, sp.ID, t)
		return
	}
	sp.tally.ops[op]++
	if sp.tally.n++; sp.tally.n == foldEvery {
		sp.fold()
	}
}

// done records op begun at t on a slow path and folds the tally, so the
// recorder is exact whenever the application thread leaves one.
func (sp *Space) done(op trace.Op, t int64) {
	sp.proc.rec.End(op, sp.ID, t)
	sp.fold()
}

// fold adds the tally to the recorder's counters and clears it. Only
// the application thread may fold: the tally is its private state.
func (sp *Space) fold() {
	if sp.tally.n == 0 {
		return
	}
	sp.proc.rec.Fold(sp.ID, &sp.tally.ops, &sp.tally.fast)
	sp.tally = opTally{}
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
// order, with the same protocol name (verified at runtime: by a broadcast
// on a fresh slot, by a round on a recycled one).
func (p *Proc) NewSpace(protoName string) (*Space, error) {
	if _, ok := p.cl.reg.Lookup(protoName); !ok {
		return nil, fmt.Errorf("core: unknown protocol %q", protoName)
	}
	tag := "newspace:" + protoName
	if len(p.spaceFree) > 0 {
		// The slot is recycled, and FreeSpace does not wait: verify with a
		// round, which no processor leaves before every processor has
		// finished the FreeSpace that freed the slot.
		if _, err := p.verifyRound(tag, false); err != nil {
			return nil, err
		}
	} else if err := p.verifyCollective(tag); err != nil {
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
	p.flushToBase(sp)
	sp.eng.Lock()
	for _, r := range sp.regions {
		p.assertQuiescent("ChangeProtocol", r)
		resetRegion(r)
	}
	p.reinstall(sp, info)
	sp.eng.Unlock()
	p.ctx.DefaultBarrier()
	sp.done(trace.OpChangeProtocol, t)
	return nil
}
