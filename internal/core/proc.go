package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/memory"
	"github.com/acedsm/ace/internal/trace"
)

// Proc is one logical processor's handle on the runtime. All methods are
// called from the processor's single application thread (the SPMD model);
// message handlers run on whichever goroutine holds the destination
// node's dispatch token (package amnet): the node's pump, a sender or a
// tcpnet connection reader dispatching directly, or the application
// thread polling from Ctx.Wait.
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
//   - regMu serializes the region table's writers and guards the
//     allocation sequence. Lookups (Map, the handlers, Ctx.Region)
//     read the table lock-free.
//   - The waiter slot (waitSeq, waitMsg, waitState) is the application
//     thread's one reply rendezvous, claimed lock-free: Complete and a
//     failing Wait each take its armed seq with one compare-and-swap
//     (see Ctx.NewWaiter).
//   - treeMu protects the round table (rounds) and its free list, the
//     state of every collective (barrier, all-reduce, broadcast, each
//     a tree round); Directory.lockMu guards each home's region lock
//     queue. The dispatch token serializes the handlers that use them,
//     but not the other code that does, none of which holds it: the
//     application thread folds its own round contribution into rounds
//     directly; after a peer loss purgeSyncState clears rounds and the
//     lock queues from a goroutine of its own; and the space-wide
//     resets (ChangeProtocol, FreeSpace, RestoreCheckpoint) read or
//     reset lock queues on the application thread. Completions are
//     sent after the lock is released — a Send can block on transport
//     backpressure, or run the destination's handler then and there,
//     and arrival processing must not stall behind it.
//   - spaceMu serializes space creation; lookup reads the atomic
//     spaces snapshot and never locks.
//   - Region.hot is the lock-free fast path: brackets on a region whose
//     protocol published a fast-path eligibility bit commit with one
//     CAS and never take eng (see region.go).
//
// Lock ordering: dispatch token → eng → {regMu, treeMu}; regMu →
// Directory.lockMu (purgeSyncState). A handler must never lock eng
// while holding regMu, and engine locks of two spaces never nest by
// blocking. regMu, treeMu and Directory.lockMu are leaves: none is
// ever held across a Send. That is what lets a handler run under
// direct dispatch, on a sender's goroutine that may already hold an
// engine and a chain of tokens: such a goroutine blocks only on those
// leaves and takes every token and engine with TryLock (see
// registerHandlers and Space.lockEngine), so nothing it waits for can
// be waiting for it.
type Proc struct {
	id  amnet.NodeID
	cl  *Cluster
	ep  amnet.Endpoint
	ctx *Ctx // proc-level ctx: no engine lock (collectives, lookups)

	// regMu serializes the region table's writers (Put, Delete,
	// ForEach) and guards the allocation sequence. Lookups take no
	// lock: memory.Table.Get is an atomic load.
	regMu   sync.Mutex
	regions memory.Table[Region]
	nextSeq uint64

	// hints holds, for each region a BroadcastIDs named that has no
	// view here yet, the size and space of the root's view; the
	// region's first Map consumes it instead of a lookup. FreeSpace
	// drops a freed space's hints. Application thread only.
	hints map[RegionID]regionHint

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

	// The waiter slot. An SPMD application thread blocks on at most one
	// reply at a time, so it has one slot: waitSeq holds the armed wait's
	// seq (0 when none), and whoever claims it from there with a
	// compare-and-swap — Complete, or a failing Wait — alone decides the
	// wait's fate. A claimed completion's message goes in waitMsg, and
	// wake (capacity one) wakes the wait only if waitState says it
	// parked. staleSeq is the watermark of failed waits: a completion at
	// or below it is dropped. nextWaiter, the last seq issued, is
	// application-thread private.
	waitSeq    atomic.Uint64
	waitMsg    amnet.Msg
	waitState  atomic.Uint32
	wake       chan struct{}
	staleSeq   atomic.Uint64
	nextWaiter uint64

	// stall is the SyncTimeout timer of the application thread's waits
	// (nil until the first), re-armed by each one. Application thread
	// only.
	stall *time.Timer

	// Binomial-tree neighbors of the collectives: treeParent is -1 at
	// the root, and treeKids lists this rank's children in increasing
	// rank order. Fixed at creation.
	treeParent amnet.NodeID
	treeKids   []amnet.NodeID

	// Collective state. collSeq tags every collective in program order
	// (application thread only). rounds (under treeMu) holds each open
	// round's state at this node, and
	// roundFree the reset rounds reused by the next ones, so a round
	// allocates nothing once the list is warm.
	collSeq   uint64
	treeMu    sync.Mutex
	rounds    map[uint64]*treeRound
	roundFree []*treeRound

	// fabricCopies is true when the endpoint's Send copies the payload
	// before returning (amnet.PayloadCopier), letting the runtime pass
	// region data to Send without a defensive clone of its own.
	fabricCopies bool

	// downCh is closed when the transport declares a peer lost
	// (amnet.PeerAware); downPeer then holds the first lost peer's id
	// (-1 before). Blocked synchronization waits select on it and fail
	// with ErrPeerLost instead of hanging forever. The latch never
	// re-arms: a cluster that lost a peer is finished.
	downCh   chan struct{}
	downPeer atomic.Int32

	// coll counts collective rounds, hops and bytes plus aggregated
	// protocol frames (always on, lock-free; see trace.CollStats).
	coll trace.CollStats

	// selfPending counts the space messages (protocol messages, batch
	// frames, unlocks) this processor has sent itself and no handler has
	// finished with yet; the lifecycle collectives read it as held
	// coherence state (holdsCoherence).
	selfPending atomic.Int64

	// rec holds the operation, fast-hit and remote-miss counters (always
	// on) and, when Options.Trace asks, latencies and the event ring.
	rec *trace.Recorder
}

func newProc(c *Cluster, ep amnet.Endpoint) *Proc {
	p := &Proc{
		id:     ep.ID(),
		cl:     c,
		ep:     ep,
		wake:   make(chan struct{}, 1),
		rounds: make(map[uint64]*treeRound),
		hints:  make(map[RegionID]regionHint),
		rec:    trace.NewRecorder(int(ep.ID()), c.opts.Trace),
	}
	p.ctx = &Ctx{p: p}
	p.downCh = make(chan struct{})
	p.downPeer.Store(-1)
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
	if !p.downPeer.CompareAndSwap(-1, int32(peer)) {
		return // a later report: the first lost peer wins
	}
	close(p.downCh)
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

// Snapshot returns this processor's observability snapshot: per-space
// operation, fast-hit and remote-miss counts, latency histograms
// (populated when Options.Trace enabled metrics), and this endpoint's
// traffic counters. Like every Proc method it runs on the processor's
// application thread, which first folds its pending operation tallies,
// so the counts are exact. Another goroutine reads Cluster.Metrics.
func (p *Proc) Snapshot() trace.Metrics {
	p.fold()
	return p.snapshot()
}

// fold adds every space's pending operation tally to the recorder.
// Application thread only.
func (p *Proc) fold() {
	for _, sp := range *p.spaces.Load() {
		if sp != nil {
			sp.fold()
		}
	}
}

// snapshot is Snapshot without the fold: safe from any goroutine, and
// behind the application thread by at most its unfolded tallies.
func (p *Proc) snapshot() trace.Metrics {
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

// verifyRound checks that every processor reached the same collective
// call, in one tree round that also fences: nobody leaves it before
// every processor has entered it. Each processor contributes its tag
// and a flag; every node of the tree compares its children's tags with
// its own byte for byte (combineVerify), so every processor, the root
// included, learns of a mismatch and returns the error. It returns the
// OR of the flags. Counted as a reduce.
func (p *Proc) verifyRound(tag string, flag bool) (bool, error) {
	buf := amnet.Alloc(8 + len(tag))
	var w uint64
	if flag {
		w = verifyFlag
	}
	binary.LittleEndian.PutUint64(buf, w)
	copy(buf[8:], tag)
	out := p.reduceRound(collOpVerify, buf)
	w = binary.LittleEndian.Uint64(out)
	var err error
	if w&verifyMismatch != 0 {
		err = fmt.Errorf("core: proc %d: collective mismatch: local %q, proc 0 %q", p.id, tag, out[8:])
	}
	amnet.Recycle(out)
	return w&verifyFlag != 0, err
}
