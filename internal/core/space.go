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
	// materialize add to it); FreeSpace drops it with the space.
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

	// dead is set by FreeSpace once the space has been flushed and its
	// slot recycled; allocation and lookup paths check it lock-free.
	dead atomic.Bool

	// tally holds the operations, fast hits and remote misses not yet
	// added to the recorder: every count the space takes goes through
	// it. Application-thread private, so counting is a plain increment.
	tally opTally

	// log is the space's write log: the regions whose written bit is
	// set, in the order it was set — by a FastWriteLogged close or by
	// Ctx.LogWrite from a section-end hook. Application-thread private
	// like tally; protocols drain it with Ctx.TakeWrites.
	log []*Region
}

// logWrite puts r on the write log unless its written bit says it is
// there already. Application thread only.
func (sp *Space) logWrite(r *Region) {
	if r.setWritten() {
		sp.log = append(sp.log, r)
	}
}

// takeLog empties the write log, clearing each region's written bit,
// and returns the regions. The slice is valid until the next logged
// write. Application thread only.
func (sp *Space) takeLog() []*Region {
	rs := sp.log
	for _, r := range rs {
		r.clearBits(rwWritten)
	}
	sp.log = rs[:0]
	return rs
}

// foldEvery is how many lock-free operations a space's tally holds
// before the application thread folds it into the recorder. It bounds
// how far a concurrent Cluster.Metrics scrape can lag behind.
const foldEvery = 1024

// opTally is a space's plain count of operations awaiting a fold: ops
// counts them all, fast the fast-path hits among them, miss the remote
// bracket opens (at OpStartRead and OpStartWrite), n the operations.
type opTally struct {
	ops, fast, miss trace.OpCounts
	n               int
}

// hit records a fast-path completion of op begun at t (the recorder's
// Begin token). Application thread only, like count.
func (sp *Space) hit(op trace.Op, t int64) {
	sp.tally.fast[op]++
	sp.count(op, t)
}

// count records op begun at t on a path that took no lock: a timed op's
// latency goes to the recorder, and the op bumps the tally, which folds
// every foldEvery operations.
func (sp *Space) count(op trace.Op, t int64) {
	if t != 0 {
		sp.proc.rec.End(op, sp.ID, t)
	}
	sp.tally.ops[op]++
	if sp.tally.n++; sp.tally.n == foldEvery {
		sp.fold()
	}
}

// done records op begun at t on a slow path and folds the tally, so the
// recorder is exact whenever the application thread leaves one.
func (sp *Space) done(op trace.Op, t int64) {
	sp.count(op, t)
	sp.fold()
}

// fold adds the tally to the recorder's counters and clears it. Only
// the application thread may fold: the tally is its private state.
func (sp *Space) fold() {
	if sp.tally.n == 0 {
		return
	}
	sp.proc.rec.Fold(sp.ID, &sp.tally.ops, &sp.tally.fast, &sp.tally.miss)
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
// order, with the same protocol name. A verifying round checks that, and
// no processor leaves it before every processor has entered it, so a
// recycled slot's new occupant is created only once every processor has
// finished the FreeSpace that freed the slot (FreeSpace does not wait).
func (p *Proc) NewSpace(protoName string) (*Space, error) {
	if _, ok := p.cl.reg.Lookup(protoName); !ok {
		return nil, fmt.Errorf("core: unknown protocol %q", protoName)
	}
	if _, err := p.verifyRound("newspace:"+protoName, false); err != nil {
		return nil, err
	}
	return p.addSpace(protoName), nil
}

// ChangeProtocol changes sp's protocol. It is a collective operation. The
// semantics follow the paper: the old protocol flushes every region of the
// space to the base state (authoritative data at the home, no cached
// copies), then the new protocol is initialized. The flush is skipped
// when no processor holds state of the space (see quiesce).
func (p *Proc) ChangeProtocol(sp *Space, protoName string) error {
	info, ok := p.cl.reg.Lookup(protoName)
	if !ok {
		return fmt.Errorf("core: unknown protocol %q", protoName)
	}
	t := p.rec.Begin()
	if err := p.quiesce(fmt.Sprintf("chgproto:%d:%s", sp.ID, protoName), sp); err != nil {
		return err
	}
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
