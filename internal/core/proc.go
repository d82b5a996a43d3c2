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

	// coll counts collective rounds, hops and bytes plus aggregated
	// protocol frames (always on, lock-free; see trace.CollStats).
	coll trace.CollStats

	// rec holds the operation, fast-hit and remote-miss counters (always
	// on) and, when Options.Trace asks, latencies and the event ring.
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

// Snapshot returns this processor's observability snapshot: per-space
// operation, fast-hit and remote-miss counts (always live), latency
// histograms (populated when Options.Trace enabled metrics), and this
// endpoint's traffic counters (always live). It may be called
// concurrently with the processor's execution; the ops half is then a
// momentary view.
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
