package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/memory"
	"github.com/acedsm/ace/internal/trace"
)

// Proc is one logical processor's handle on the runtime. All methods are
// called from the processor's single application thread (the SPMD model);
// message handlers run on whichever goroutine holds the destination
// node's dispatch token (package amnet): the node's pump, a sender
// dispatching directly, or the application thread polling from Ctx.Wait.
//
// Concurrency model (see DESIGN.md §5c for the full treatment). The former
// per-processor runtime mutex is decomposed so a bracket hit never
// contends with the coherence engine:
//
//   - Space.eng, one per space, is the engine lock: it protects the
//     space's protocol instance and every protocol-owned region field
//     (State, Flags, PState, Dir coherence state) of the space's
//     regions. Protocol routines and Deliver run under it. (MapCount is
//     application-thread-private: only Map and Unmap touch it.)
//   - regMu protects the region table and the allocation sequence.
//   - wMu protects the waiter table and the waiter free list.
//   - collMu protects the collective rendezvous maps (collGot,
//     collWait), the collective state shared between the application
//     thread and the handlers. barGen and collSeq are
//     application-thread-private.
//   - barMu protects the barrier arrival state (barTree) and accMu the
//     reduction accumulators (collAcc); Directory.lockMu guards each
//     home's region lock queue. The dispatch token serializes the
//     handlers that use them, but not the other code that does, none
//     of which holds it: the application thread folds its own barrier
//     arrival and reduction contribution into barTree and collAcc
//     directly; after a peer loss purgeSyncState clears all three from
//     a goroutine of its own (or Cluster.Revive's caller); and
//     FreeSpace, MigrateHome and RestoreCheckpoint read or reset lock
//     queues on the application thread. Completions are sent after the lock is released — a Send
//     can block on transport backpressure, or run the destination's
//     handler then and there, and arrival processing must not stall
//     behind it.
//   - spaceMu serializes space creation; lookup reads the atomic
//     spaces snapshot and never locks.
//   - Region.hot is the lock-free fast path: brackets on a region whose
//     protocol published a fast-path eligibility bit commit with one
//     CAS and never take eng (see region.go).
//
// Lock ordering: dispatch token → eng → {regMu, wMu, collMu}; collMu →
// wMu. A handler must never lock eng while holding regMu, and engine
// locks of two spaces never nest by blocking. regMu, wMu, collMu (with
// wMu under it), barMu, accMu and Directory.lockMu are leaves: none is
// ever held across a Send. That is what lets a handler run under direct
// dispatch, on a sender's goroutine that may already hold an engine and
// a chain of tokens: such a goroutine blocks only on those leaves and
// takes every token and engine with TryLock (see registerHandlers and
// Space.lockEngine), so nothing it waits for can be waiting for it.
type Proc struct {
	id  amnet.NodeID
	cl  *Cluster
	ep  amnet.Endpoint
	ctx *Ctx // proc-level ctx: no engine lock (collectives, lookups)

	// regMu guards the region table and the allocation sequence.
	regMu   sync.RWMutex
	regions memory.Table[*Region]
	nextSeq uint64

	// spaceMu serializes space creation and destruction. The table
	// itself is published as a copy-on-write snapshot so space lookup is
	// one atomic load. Freed slots are nil in the snapshot; spaceFree
	// holds their indices (ascending, so reuse is deterministic across
	// processors) and slotGen the per-slot generation, bumped at every
	// free so a recycled slot's new occupant never aliases a stale
	// SpaceRef. Both are identical on every processor because the space
	// lifecycle is collective.
	spaceMu   sync.Mutex
	spaces    atomic.Pointer[[]*Space]
	spaceFree []int
	slotGen   []uint64

	// wMu guards the waiter table, the retired tombstones (waiters whose
	// Wait failed; late completions for them are dropped) and the free
	// list of waiters whose Wait succeeded — their channels are known
	// empty, so NewWaiter reuses them instead of allocating per miss.
	wMu        sync.Mutex
	waiters    map[uint64]*waiter
	retired    map[uint64]struct{}
	freeWait   []*waiter
	nextWaiter uint64

	// Barrier state. barGen counts this processor's barrier arrivals
	// (application thread only); barTree (under barMu) holds each open
	// generation's subtree arrival state.
	barGen  uint64
	barMu   sync.Mutex
	barTree map[uint64]*treeBar

	// Binomial-tree neighbors of the collectives: treeParent is -1 at
	// the root, and treeKids lists this rank's children in increasing
	// rank order. Fixed at creation.
	treeParent amnet.NodeID
	treeKids   []amnet.NodeID

	// Collective state. collSeq tags collectives in program order
	// (application thread only); collGot buffers payloads that arrive
	// before the local thread asks and collWait maps tag to a waiter
	// (both under collMu); collAcc (under accMu) accumulates each open
	// reduction's contributions from this node and its subtrees.
	collMu   sync.Mutex
	collSeq  uint64
	collGot  map[uint64][]byte
	collWait map[uint64]uint64
	accMu    sync.Mutex
	collAcc  map[uint64]*collAcc

	// direct is the endpoint's direct-dispatch face: the in-process
	// channel fabric has one, faultnet and tcpnet endpoints do not (nil).
	// Whether a given send or poll actually dispatches is the fabric's
	// call alone. Ctx.Wait polls it before parking.
	direct amnet.DirectDispatcher

	// fabricCopies is true when the endpoint's Send copies the payload
	// before returning (amnet.PayloadCopier), letting the runtime pass
	// region data to Send without a defensive clone of its own.
	fabricCopies bool

	// downCh is closed when the transport declares a peer lost
	// (amnet.PeerAware); downPeer then holds the peer's id. Blocked
	// synchronization waits select on it and fail with ErrPeerLost
	// instead of hanging forever. downMu guards the latch (downClosed)
	// so Cluster.Revive can re-arm it with a fresh channel — a plain
	// sync.Once could fire only for the first kill of the cluster's
	// lifetime. reviveEpoch counts revivals; it keys the out-of-band
	// resynchronization collective (application thread reads it, revive
	// writes it before Resume starts the thread).
	downCh      chan struct{}
	downMu      sync.Mutex
	downClosed  bool
	downPeer    atomic.Int32
	reviveEpoch uint64

	// ops counts runtime primitive invocations; fastOps the subset that
	// completed on the lock-free bracket fast path. Indexed by trace.Op.
	// Only the application thread increments them, so the atomic adds
	// are uncontended; atomics make Stats/FastHits safe to read
	// concurrently.
	ops     [trace.NumOps]atomic.Uint64
	fastOps [trace.NumOps]atomic.Uint64

	// coll counts collective rounds, hops and bytes plus aggregated
	// protocol frames (always on, lock-free; see trace.CollStats).
	coll trace.CollStats

	rec *trace.Recorder
}

type waiter struct{ ch chan amnet.Msg }

// collAcc accumulates reduction contributions, slotted so the combining
// order is deterministic (floating-point sums must not depend on
// message arrival order): own value first, then the children's subtree
// partials in rank order.
type collAcc struct {
	vals  [][]byte
	count int
}

func newProc(c *Cluster, ep amnet.Endpoint) *Proc {
	p := &Proc{
		id:       ep.ID(),
		cl:       c,
		ep:       ep,
		waiters:  make(map[uint64]*waiter),
		barTree:  make(map[uint64]*treeBar),
		collGot:  make(map[uint64][]byte),
		collWait: make(map[uint64]uint64),
		collAcc:  make(map[uint64]*collAcc),
		rec:      trace.NewRecorder(int(ep.ID()), c.opts.Trace),
	}
	p.ctx = &Ctx{p: p}
	p.downCh = make(chan struct{})
	p.downPeer.Store(-1)
	p.direct, _ = ep.(amnet.DirectDispatcher)
	if pc, ok := ep.(amnet.PayloadCopier); ok && pc.CopiesPayloadOnSend() {
		p.fabricCopies = true
	}
	if pa, ok := ep.(amnet.PeerAware); ok {
		pa.SetPeerDownHandler(p.peerDown)
	}
	p.treeParent = -1
	if p.id != 0 {
		p.treeParent = amnet.NodeID(treeParentOf(int(p.id)))
	}
	for _, k := range treeKidsOf(int(p.id), c.nodes) {
		p.treeKids = append(p.treeKids, amnet.NodeID(k))
	}
	p.registerHandlers()
	// The default space (index 0) exists on every processor from the
	// start, carrying the cluster's default protocol.
	p.addSpace(c.opts.DefaultProtocol)
	return p
}

// peerDown records the first lost peer and releases every blocked
// synchronization wait (current and future) into the ErrPeerLost path.
// It is called from a transport goroutine and never blocks.
func (p *Proc) peerDown(peer amnet.NodeID) {
	p.downMu.Lock()
	if p.downClosed {
		p.downMu.Unlock()
		return
	}
	p.downClosed = true
	p.downPeer.Store(int32(peer))
	close(p.downCh)
	p.downMu.Unlock()
	// Purge pending collective and lock state on a fresh goroutine:
	// this callback runs on a transport goroutine that must not
	// block, and the purge takes runtime locks a handler may hold.
	// downPeer is visibly set before the purge starts, and arrival
	// handlers drop messages once it is (checked under the same
	// locks), so the purged tables cannot repopulate.
	go p.purgeSyncState()
}

// ID returns this processor's id.
func (p *Proc) ID() int { return int(p.id) }

// Procs returns the cluster size.
func (p *Proc) Procs() int { return p.cl.Procs() }

// Cluster returns the owning cluster.
func (p *Proc) Cluster() *Cluster { return p.cl }

// DefaultSpace returns the predefined space with the cluster's default
// protocol (sequentially consistent unless configured otherwise). Space
// lookup reads the atomic snapshot: it never contends with the pump.
func (p *Proc) DefaultSpace() *Space {
	return (*p.spaces.Load())[0]
}

// space returns the space with the given id, panicking on unknown or
// freed ids. Runtime wire handlers may use it because the collective
// space lifecycle guarantees no protocol traffic for a freed space is
// in flight (FreeSpace flushes and barriers before recycling the slot);
// anything fed by external input goes through SpaceByRef instead.
func (p *Proc) space(id int) *Space {
	sps := p.spaces.Load()
	if sps == nil || id < 0 || id >= len(*sps) {
		panic(fmt.Sprintf("core: proc %d: unknown space %d", p.id, id))
	}
	sp := (*sps)[id]
	if sp == nil {
		panic(fmt.Sprintf("core: proc %d: space %d has been freed", p.id, id))
	}
	return sp
}

// FastHits returns how many invocations of each operation completed on
// the lock-free bracket fast path (always a subset of the counts in
// Stats/Snapshot).
func (p *Proc) FastHits() trace.OpCounts {
	var c trace.OpCounts
	for i := range c {
		c[i] = p.fastOps[i].Load()
	}
	return c
}

// Snapshot returns this processor's observability snapshot: per-space
// operation counts and latency histograms (populated when Options.Trace
// enabled metrics) plus this endpoint's traffic counters (always live).
// It may be called concurrently with the processor's execution; the ops
// half is then a momentary view.
func (p *Proc) Snapshot() trace.Metrics {
	m := p.rec.Snapshot()
	if sps := p.spaces.Load(); sps != nil {
		for _, sp := range *sps {
			if sp == nil {
				continue
			}
			if st := sp.adapt.Load(); st != nil {
				if s := st.pub.Load(); s != nil {
					m.Adapt = append(m.Adapt, *s)
				}
			}
		}
	}
	m.Net = p.ep.Stats().Snapshot()
	m.Coll = p.coll.Snapshot()
	return m
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

// GMalloc allocates a shared region of size bytes from sp. The calling
// processor becomes the region's home. The returned id is valid on every
// processor (communicate it with Broadcast or by storing it in another
// region). It panics on an invalid size or a freed space — programmer
// errors in SPMD code; boundaries that feed client-derived input through
// use GMallocE, which returns the error instead.
func (p *Proc) GMalloc(sp *Space, size int) RegionID {
	id, err := p.GMallocE(sp, size)
	if err != nil {
		panic(fmt.Sprintf("core: GMalloc: %v", err))
	}
	return id
}

// GMallocE is GMalloc with the validity checks surfaced as errors: a
// non-positive or oversized (MaxRegionSize) size fails with ErrBadSize,
// allocation from a freed space with ErrStaleSpace. It never panics on
// bad input, so it is safe at boundaries where sizes derive from
// untrusted client frames.
func (p *Proc) GMallocE(sp *Space, size int) (RegionID, error) {
	if size <= 0 || size > MaxRegionSize {
		return 0, &BadSizeError{Size: size}
	}
	if sp.dead.Load() {
		return 0, &StaleSpaceError{Ref: sp.Ref()}
	}
	t := p.rec.Begin()
	p.ops[trace.OpGMalloc].Add(1)
	p.regMu.Lock()
	p.nextSeq++
	id := memory.MakeID(int32(p.id), p.nextSeq)
	r := &Region{
		ID:    id,
		Home:  p.id,
		Size:  size,
		Data:  make(memory.Data, size),
		Space: sp,
		Dir:   NewDirectory(),
	}
	p.regions.Put(id, r)
	p.regMu.Unlock()
	sp.eng.Lock()
	sp.Proto.RegionCreated(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	p.rec.End(trace.OpGMalloc, sp.ID, t)
	return id, nil
}

// Map translates a region id into this processor's local view of the
// region, materializing it (fetching its metadata from the home) if this
// is the first encounter. The data is not necessarily valid until a
// StartRead or StartWrite.
func (p *Proc) Map(id RegionID) *Region {
	t := p.rec.Begin()
	p.ops[trace.OpMap].Add(1)
	p.regMu.RLock()
	r := p.regions.Get(id)
	p.regMu.RUnlock()
	if r == nil {
		r = p.fetchRegion(id)
	}
	sp := r.Space
	r.MapCount++
	// Null-point elimination: a protocol that declared its map hook null
	// has nothing to run here, so the engine is not taken and the fast
	// bits (a pure function of protocol state no hook changed) stand.
	if !sp.null.Has(PointMap) {
		sp.eng.Lock()
		sp.Proto.Map(sp.ctx, r)
		sp.refreshFast(r)
		sp.eng.Unlock()
	}
	p.rec.End(trace.OpMap, sp.ID, t)
	return r
}

// fetchRegion materializes a remote region, asking its home for metadata.
func (p *Proc) fetchRegion(id RegionID) *Region {
	if amnet.NodeID(id.Home()) == p.id {
		panic(fmt.Sprintf("core: proc %d: unknown home region %v", p.id, id))
	}
	seq := p.ctx.NewWaiter()
	p.ep.Send(amnet.Msg{Dst: amnet.NodeID(id.Home()), Handler: hLookup, A: uint64(id), B: seq})
	m := p.ctx.Wait(seq)
	sp := p.space(int(m.C))
	sp.eng.Lock()
	r := p.materializeAt(id, int(m.A), sp, amnet.NodeID(m.D))
	sp.eng.Unlock()
	return r
}

// materialize creates the local view of a region homed elsewhere at the
// home its id encodes, returning the existing view if a protocol push
// raced it in. Caller holds sp's engine lock.
func (p *Proc) materialize(id RegionID, size int, sp *Space) *Region {
	return p.materializeAt(id, size, sp, amnet.NodeID(id.Home()))
}

// materializeAt is materialize with an explicit home: a lookup reply
// names the region's current home, which after a MigrateHome differs
// from the allocator the id encodes.
func (p *Proc) materializeAt(id RegionID, size int, sp *Space, home amnet.NodeID) *Region {
	p.regMu.Lock()
	if r := p.regions.Get(id); r != nil {
		p.regMu.Unlock()
		return r
	}
	r := &Region{
		ID:    id,
		Home:  home,
		Size:  size,
		Data:  make(memory.Data, size),
		Space: sp,
	}
	p.regions.Put(id, r)
	p.regMu.Unlock()
	sp.Proto.RegionCreated(sp.ctx, r)
	sp.refreshFast(r)
	return r
}

// Unmap releases one map of r. Cached data survives unmapping and remains
// under coherence (CRL-style unmapped-region caching).
func (p *Proc) Unmap(r *Region) {
	t := p.rec.Begin()
	p.ops[trace.OpUnmap].Add(1)
	sp := r.Space
	if r.MapCount <= 0 {
		panic(fmt.Sprintf("core: proc %d: unmap of unmapped region %v", p.id, r.ID))
	}
	r.MapCount--
	if !sp.null.Has(PointUnmap) { // null-point elimination, as in Map
		sp.eng.Lock()
		sp.Proto.Unmap(sp.ctx, r)
		sp.refreshFast(r)
		sp.eng.Unlock()
	}
	p.rec.End(trace.OpUnmap, sp.ID, t)
}

// StartRead opens a read section on r. On return r.Data is valid for
// reading under the space's protocol.
//
// The fast path: when r's protocol has published the FastRead
// eligibility bit, opening the section is a single CAS on the region's
// hot word — no lock, no protocol invocation. Any interference (bit
// withdrawn by the engine, concurrent word update) falls back to the
// engine-locked slow path.
func (p *Proc) StartRead(r *Region) {
	t := p.rec.Begin()
	p.ops[trace.OpStartRead].Add(1)
	if r.tryFastStart(rwFastRead, rwReaderShift) {
		p.fastOps[trace.OpStartRead].Add(1)
		p.rec.FastHit(trace.OpStartRead, r.Space.ID)
		p.rec.End(trace.OpStartRead, r.Space.ID, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.StartRead(sp.ctx, r)
	r.adjSections(1, rwReaderShift)
	sp.refreshFast(r)
	sp.eng.Unlock()
	if !r.IsHome() {
		p.rec.RemoteMiss(trace.OpStartRead, sp.ID)
	}
	p.rec.End(trace.OpStartRead, sp.ID, t)
}

// EndRead closes a read section on r.
func (p *Proc) EndRead(r *Region) {
	t := p.rec.Begin()
	p.ops[trace.OpEndRead].Add(1)
	if r.tryFastEnd(rwFastRead, rwReaderShift) {
		p.fastOps[trace.OpEndRead].Add(1)
		p.rec.FastHit(trace.OpEndRead, r.Space.ID)
		p.rec.End(trace.OpEndRead, r.Space.ID, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	if r.Readers() <= 0 {
		panic(fmt.Sprintf("core: proc %d: EndRead without StartRead on %v", p.id, r.ID))
	}
	r.adjSections(-1, rwReaderShift)
	sp.Proto.EndRead(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	p.rec.End(trace.OpEndRead, sp.ID, t)
}

// StartWrite opens a write section on r. On return r.Data is valid for
// writing under the space's protocol. Fast path as in StartRead, gated
// on FastWrite.
func (p *Proc) StartWrite(r *Region) {
	t := p.rec.Begin()
	p.ops[trace.OpStartWrite].Add(1)
	if r.tryFastStart(rwFastWrite, rwWriterShift) {
		p.fastOps[trace.OpStartWrite].Add(1)
		p.rec.FastHit(trace.OpStartWrite, r.Space.ID)
		p.rec.End(trace.OpStartWrite, r.Space.ID, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.StartWrite(sp.ctx, r)
	r.adjSections(1, rwWriterShift)
	sp.refreshFast(r)
	sp.eng.Unlock()
	if !r.IsHome() {
		p.rec.RemoteMiss(trace.OpStartWrite, sp.ID)
	}
	p.rec.End(trace.OpStartWrite, sp.ID, t)
}

// EndWrite closes a write section on r.
func (p *Proc) EndWrite(r *Region) {
	t := p.rec.Begin()
	p.ops[trace.OpEndWrite].Add(1)
	if r.tryFastEnd(rwFastWrite, rwWriterShift) {
		p.fastOps[trace.OpEndWrite].Add(1)
		p.rec.FastHit(trace.OpEndWrite, r.Space.ID)
		p.rec.End(trace.OpEndWrite, r.Space.ID, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	if r.Writers() <= 0 {
		panic(fmt.Sprintf("core: proc %d: EndWrite without StartWrite on %v", p.id, r.ID))
	}
	r.adjSections(-1, rwWriterShift)
	sp.Proto.EndWrite(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	p.rec.End(trace.OpEndWrite, sp.ID, t)
}

// Barrier executes a barrier with the semantics of sp's protocol (for
// example, a static update protocol propagates updates here). When the
// cluster runs with Options.Adapt, the adaptive controller evaluates the
// space here, after the barrier completes and the engine is released.
func (p *Proc) Barrier(sp *Space) {
	t := p.rec.Begin()
	p.ops[trace.OpBarrier].Add(1)
	sp.eng.Lock()
	sp.Proto.Barrier(sp.ctx, sp)
	sp.eng.Unlock()
	p.rec.End(trace.OpBarrier, sp.ID, t)
	if p.cl.adapt != nil {
		p.adaptTick(sp)
	}
}

// GlobalBarrier synchronizes all processors without protocol semantics.
// It is deliberately not a controller evaluation point: a program
// synchronizing through protocol-less barriers gives the controller no
// license to install a protocol whose coherence actions live in the
// space barrier (the push family acts there), so adaptation only ticks
// in Barrier, where the space's protocol barrier actually ran.
func (p *Proc) GlobalBarrier() {
	p.ctx.DefaultBarrier()
}

// Lock acquires the region lock with the semantics of the region's
// protocol.
func (p *Proc) Lock(r *Region) {
	t := p.rec.Begin()
	p.ops[trace.OpLock].Add(1)
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.Lock(sp.ctx, r)
	sp.eng.Unlock()
	p.rec.End(trace.OpLock, sp.ID, t)
}

// Unlock releases the region lock.
func (p *Proc) Unlock(r *Region) {
	t := p.rec.Begin()
	p.ops[trace.OpUnlock].Add(1)
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.Unlock(sp.ctx, r)
	sp.eng.Unlock()
	p.rec.End(trace.OpUnlock, sp.ID, t)
}

// DropCopy asks r's protocol to discard the local cached copy if safe,
// reporting whether it did. Runtimes with bounded region caches use this
// for eviction.
func (p *Proc) DropCopy(r *Region) bool {
	d, ok := r.Space.Proto.(Dropper)
	if !ok {
		return false
	}
	sp := r.Space
	sp.eng.Lock()
	dropped := d.DropCopy(sp.ctx, r)
	if dropped {
		sp.refreshFast(r)
	}
	sp.eng.Unlock()
	return dropped
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
	p.ops[trace.OpChangeProtocol].Add(1)
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

// regionList snapshots the region table under regMu so callers can
// iterate without holding the table lock across protocol callbacks.
func (p *Proc) regionList() []*Region {
	p.regMu.RLock()
	out := make([]*Region, 0, p.regions.Len())
	p.regions.ForEach(func(_ RegionID, r *Region) { out = append(out, r) })
	p.regMu.RUnlock()
	return out
}

// verifyCollective checks that every processor reached the same collective
// call: processor 0 broadcasts the tag and the others compare.
func (p *Proc) verifyCollective(tag string) error {
	got := p.Broadcast(0, []byte(tag))
	if string(got) != tag {
		return fmt.Errorf("core: proc %d: collective mismatch: local %q, proc 0 %q", p.id, tag, got)
	}
	return nil
}

// registerHandlers installs the runtime's message handlers. A handler
// runs on whichever goroutine holds its node's dispatch token: a pump, a
// sender dispatching directly, or this processor's application thread
// polling from Ctx.Wait (see package amnet). The token keeps one
// processor's handlers from running concurrently with each other, but
// not with its application thread, so each takes the lock guarding the
// state it touches — and only that one, so a directory transaction on
// one space never serializes against brackets, collectives, or other
// spaces.
//
// On a fabric with direct dispatch every handler below except hMigrate
// also registers its non-blocking form. The audit
// behind that: hComplete, hBarArrive, hLockReq, hUnlockMsg and hColl
// touch only leaf locks (wMu, barMu, Directory.lockMu, accMu, and collMu,
// under which only wMu is taken), none of which is held across a Send,
// and they send their completions after unlocking — so they always
// accept. hLookup, hProto and hProtoBatch need a space's engine lock,
// which an application thread holds while it sends; they accept iff
// TryLock gets it (lockEngine) and otherwise decline before touching
// anything, leaving the message to the queue and a blocking Lock.
func (p *Proc) registerHandlers() {
	// always registers a handler that never declines; engine one that
	// declines when try is set and it cannot get its space's engine.
	always := func(id amnet.HandlerID, fn amnet.Handler) {
		p.ep.Register(id, fn)
		if p.direct != nil {
			p.direct.RegisterTry(id, func(m amnet.Msg) bool { fn(m); return true })
		}
	}
	engine := func(id amnet.HandlerID, fn func(m amnet.Msg, try bool) bool) {
		p.ep.Register(id, func(m amnet.Msg) { fn(m, false) })
		if p.direct != nil {
			p.direct.RegisterTry(id, func(m amnet.Msg) bool { return fn(m, true) })
		}
	}
	always(hComplete, func(m amnet.Msg) { p.ctx.Complete(m.B, m) })
	engine(hLookup, p.lookupMsg)
	always(hBarArrive, p.barrierArrive) // barrier state under barMu
	always(hLockReq, p.lockRequest)     // home directory state under Dir.lockMu
	always(hUnlockMsg, p.unlockRequest) // home directory state under Dir.lockMu
	always(hColl, func(m amnet.Msg) {
		p.collDeliver(m)
		// collDeliver clones every payload it keeps (accumulator entries
		// and buffered broadcast values), so the wire buffer is free.
		amnet.Recycle(m.Payload)
	})
	engine(hProto, p.protoMsg)
	engine(hProtoBatch, p.protoBatchMsg)
	p.ep.Register(hMigrate, p.migrateMsg)
}

// lockEngine takes sp's engine lock for a message handler. A handler
// dispatched directly (try) is on a borrowed goroutine that may hold
// another processor's engine, so it must not wait: it gets the lock only
// if it is free, and declines the message otherwise.
func (sp *Space) lockEngine(try bool) bool {
	if try {
		return sp.eng.TryLock()
	}
	sp.eng.Lock()
	return true
}

// lookupMsg serves a region metadata request at the region's allocator.
func (p *Proc) lookupMsg(m amnet.Msg, try bool) bool {
	p.regMu.RLock()
	r := p.regions.Get(RegionID(m.A))
	p.regMu.RUnlock()
	if r == nil {
		panic(fmt.Sprintf("core: proc %d: lookup of unknown region %v", p.id, RegionID(m.A)))
	}
	// Size and Space are immutable after creation; Home is not
	// (MigrateHome), so read it under the engine and carry it in the
	// reply. Lookups are addressed to the region's original
	// allocator, which always retains a view and updates its Home at
	// every migration flip — so the requester materializes against
	// the current home even when this node no longer is it.
	sp := r.Space
	if !sp.lockEngine(try) {
		return false
	}
	home := r.Home
	sp.eng.Unlock()
	p.ep.Send(amnet.Msg{Dst: m.Src, Handler: hComplete, A: uint64(r.Size), B: m.B, C: uint64(sp.ID), D: uint64(home)})
	return true
}

// protoMsg hands one protocol message to its space's Deliver.
func (p *Proc) protoMsg(m amnet.Msg, try bool) bool {
	sp := p.space(int(m.D))
	if !sp.lockEngine(try) {
		return false
	}
	p.regMu.RLock()
	r := p.regions.Get(RegionID(m.A))
	p.regMu.RUnlock()
	if r != nil {
		if r.Space != sp {
			panic(fmt.Sprintf("core: proc %d: protocol message for %v names space %d, region is in %d",
				p.id, r.ID, sp.ID, r.Space.ID))
		}
		// Withdraw the fast bits before Deliver examines the section
		// counts: a concurrent fast bracket either committed before
		// this point (and its count is visible below) or its CAS
		// fails and it retries through the slow path behind eng.
		r.disableFast()
		if p.cl.migrate && r.IsHome() {
			sp.countHomeIn(r.ID, 1)
		}
	}
	sp.Proto.Deliver(sp.ctx, sp, r, m)
	if r != nil {
		sp.refreshFast(r)
	}
	sp.eng.Unlock()
	// Deliver implementations consume the payload synchronously
	// (copy into region data, clone into deferred queues, or forward
	// through Send, which also copies); the wire buffer is free.
	amnet.Recycle(m.Payload)
	return true
}

// protoBatchMsg hands one aggregated protocol frame to its space's
// DeliverBatch.
func (p *Proc) protoBatchMsg(m amnet.Msg, try bool) bool {
	sp := p.space(int(m.D))
	if !sp.lockEngine(try) {
		return false
	}
	bd, ok := sp.Proto.(BatchDeliverer)
	if !ok {
		panic(fmt.Sprintf("core: proc %d: aggregate frame for space %d, but protocol %q takes no batches",
			p.id, sp.ID, sp.ProtoName))
	}
	recs := p.decodeBatch(sp, m)
	if p.cl.migrate {
		for _, rec := range recs {
			if rec.R.IsHome() {
				sp.countHomeIn(rec.R.ID, 1)
			}
		}
	}
	bd.DeliverBatch(sp.ctx, sp, m.Src, m.C, m.B, recs)
	for _, rec := range recs {
		sp.refreshFast(rec.R)
	}
	sp.eng.Unlock()
	// DeliverBatch consumes record data synchronously, like Deliver.
	amnet.Recycle(m.Payload)
	return true
}

// migrateMsg serves a MigrateHome pull: the incoming home asks the
// current home for the authoritative data and lock ownership. Runs
// between the flush barrier and the flip barrier, so no coherence traffic
// races the copy; the engine lock still brackets it so the read is
// ordered against any local slow-path bracket. Always queued: once per
// migration is not worth a non-blocking form.
func (p *Proc) migrateMsg(m amnet.Msg) {
	sp := p.space(int(m.D))
	sp.eng.Lock()
	p.regMu.RLock()
	r := p.regions.Get(RegionID(m.A))
	p.regMu.RUnlock()
	if r == nil || !r.IsHome() {
		panic(fmt.Sprintf("core: proc %d: migrate pull for non-home region %v", p.id, RegionID(m.A)))
	}
	r.Dir.lockMu.Lock()
	holder := r.Dir.LockHolder
	r.Dir.lockMu.Unlock()
	p.ep.Send(amnet.Msg{
		Dst: m.Src, Handler: hComplete, B: m.B,
		A:       uint64(int64(holder) + 1), // -1 (unheld) encodes as 0
		C:       uint64(r.Size),
		Payload: p.cloneForSend(r.Data),
	})
	sp.eng.Unlock()
}

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

// The Bare section operations invoke the protocol routine without the
// runtime's section pairing bookkeeping. Compiled code uses them when the
// matching bracket was a null handler the direct-dispatch pass deleted;
// the protocol's null declaration is its promise that it needs no open-
// section accounting at these points (the paper's runtime kept none).
//
// Their fast path is a bare eligibility-bit load: publishing the bit
// already promises the protocol routine is a no-op, and Bare variants
// keep no counts, so there is nothing to CAS.

// StartReadBare opens a read section without bookkeeping.
func (p *Proc) StartReadBare(r *Region) {
	t := p.rec.Begin()
	p.ops[trace.OpStartRead].Add(1)
	if r.fastEligible(rwFastRead) {
		p.fastOps[trace.OpStartRead].Add(1)
		p.rec.FastHit(trace.OpStartRead, r.Space.ID)
		p.rec.End(trace.OpStartRead, r.Space.ID, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.StartRead(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	if !r.IsHome() {
		p.rec.RemoteMiss(trace.OpStartRead, sp.ID)
	}
	p.rec.End(trace.OpStartRead, sp.ID, t)
}

// EndReadBare closes a read section without bookkeeping.
func (p *Proc) EndReadBare(r *Region) {
	t := p.rec.Begin()
	p.ops[trace.OpEndRead].Add(1)
	if r.fastEligible(rwFastRead) {
		p.fastOps[trace.OpEndRead].Add(1)
		p.rec.FastHit(trace.OpEndRead, r.Space.ID)
		p.rec.End(trace.OpEndRead, r.Space.ID, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.EndRead(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	p.rec.End(trace.OpEndRead, sp.ID, t)
}

// StartWriteBare opens a write section without bookkeeping.
func (p *Proc) StartWriteBare(r *Region) {
	t := p.rec.Begin()
	p.ops[trace.OpStartWrite].Add(1)
	if r.fastEligible(rwFastWrite) {
		p.fastOps[trace.OpStartWrite].Add(1)
		p.rec.FastHit(trace.OpStartWrite, r.Space.ID)
		p.rec.End(trace.OpStartWrite, r.Space.ID, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.StartWrite(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	if !r.IsHome() {
		p.rec.RemoteMiss(trace.OpStartWrite, sp.ID)
	}
	p.rec.End(trace.OpStartWrite, sp.ID, t)
}

// EndWriteBare closes a write section without bookkeeping.
func (p *Proc) EndWriteBare(r *Region) {
	t := p.rec.Begin()
	p.ops[trace.OpEndWrite].Add(1)
	if r.fastEligible(rwFastWrite) {
		p.fastOps[trace.OpEndWrite].Add(1)
		p.rec.FastHit(trace.OpEndWrite, r.Space.ID)
		p.rec.End(trace.OpEndWrite, r.Space.ID, t)
		return
	}
	sp := r.Space
	sp.eng.Lock()
	sp.Proto.EndWrite(sp.ctx, r)
	sp.refreshFast(r)
	sp.eng.Unlock()
	p.rec.End(trace.OpEndWrite, sp.ID, t)
}
