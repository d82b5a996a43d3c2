// Package faultnet wraps any amnet.Network with seeded, deterministic
// wire timing: a fixed per-link delay and jitter, bounded
// drop-with-redelivery, transient partition windows, and slow-receiver
// backpressure. It is also the one place a modelled network latency
// lives: Policy{Delay: d} delays every inter-node message by d.
//
// The Ace coherence stack is built on the Active Messages fabric
// contract — per-pair FIFO ordering and exactly-once eventual delivery —
// and a reliable transport over a lossy network (see tcpnet's journal
// and sequence dedup) leaks only timing through it. So faultnet models
// that timing directly: each message draws a due time from its link's
// seeded fault stream, and a per-link release clock holds it until every
// earlier message on the link is due as well. What reaches the protocols
// is what a hardened transport leaks through: stretched and bursty
// delivery timing, stalls across partition windows, and deep receiver
// queues — the conditions the chaos harness (package chaos) drives the
// protocol library through.
//
// Injected faults are counted per kind in the endpoint's trace.NetStats
// (Faults field), so they surface in ace.Metrics alongside the traffic
// counters.
package faultnet

import (
	"container/heap"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/trace"
)

// Policy configures the injected faults. The zero value injects
// nothing; Wrap with a zero policy is a transparent transport whose
// inter-node messages take one hop through the wire scheduler.
type Policy struct {
	// Seed seeds the per-link fault streams. Two networks wrapped with
	// the same policy draw identical per-link fault decisions for the
	// k-th message on each link.
	Seed int64

	// Delay is added to every inter-node message's wire transit; Jitter
	// adds a uniform random extra in [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration

	// DropProb loses a transmission with the given probability. It is
	// delivered redeliverAfter later, as a reliable transport's
	// retransmission would be, so delivery stays exactly-once and
	// eventual; the link's release clock holds every later message
	// behind it, so nothing overtakes it.
	DropProb float64

	// Partitions are transient windows during which all traffic between
	// a node pair is lost on the wire (and redelivered redeliverAfter
	// after the window heals).
	Partitions []Partition

	// SlowNode, when SlowDelay > 0, names a node whose inbound
	// deliveries are stretched by SlowDelay each — modelling a slow
	// receiver whose queues deepen under load.
	SlowNode  int
	SlowDelay time.Duration
}

// Partition is one transient partition window: traffic between nodes A
// and B — in both directions; the pair is unordered — is lost while the
// window is open. After is measured from the network's first inter-node
// send, so a window lands on the traffic however long the setup before
// it took.
type Partition struct {
	A, B  int
	After time.Duration
	For   time.Duration
}

// redeliverAfter is the redelivery lag of a dropped transmission and of
// one lost to a partition window.
const redeliverAfter = 2 * time.Millisecond

// Wrap returns nw with p's faults injected on every inter-node link.
// Closing the returned network drains pending deliveries (in per-link
// send order, ignoring residual fault delays) and closes nw.
func Wrap(nw amnet.Network, p Policy) *Network {
	inner := nw.Endpoints()
	fn := &Network{inner: nw, policy: p}
	fn.killed = make([]atomic.Bool, len(inner))
	fn.eps = make([]*endpoint, len(inner))
	for i, iep := range inner {
		ep := &endpoint{nw: fn, inner: iep, wake: make(chan struct{}, 1)}
		ep.links = make([]*link, len(inner))
		for j := range ep.links {
			ep.links[j] = &link{rng: rand.New(rand.NewSource(mix(p.Seed, i, j)))}
		}
		// A peer-aware inner transport (tcpnet) keeps its peer-down
		// detection through the wrapper: its notifications forward into
		// the same handler Kill fires.
		if pa, ok := iep.(amnet.PeerAware); ok {
			pa.SetPeerDownHandler(ep.firePeerDown)
		}
		fn.eps[i] = ep
	}
	for _, ep := range fn.eps {
		fn.wg.Add(1)
		go ep.run(&fn.wg)
	}
	return fn
}

// mix derives a per-link seed from the policy seed and the link's
// (src, dst) pair, splitmix64-style so nearby seeds diverge.
func mix(seed int64, src, dst int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(src*1024+dst+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Network is a fault-injecting view of an inner amnet.Network.
type Network struct {
	inner  amnet.Network
	policy Policy
	eps    []*endpoint
	wg     sync.WaitGroup

	// start is the first inter-node send, set once by origin.
	startOnce sync.Once
	start     time.Time

	killed []atomic.Bool
}

// Endpoints returns the fault-injecting endpoints, one per inner node.
func (n *Network) Endpoints() []amnet.Endpoint {
	out := make([]amnet.Endpoint, len(n.eps))
	for i, ep := range n.eps {
		out[i] = ep
	}
	return out
}

// Start forwards to the inner network, releasing a gated transport's
// dispatch once handler registration is done.
func (n *Network) Start() { n.inner.Start() }

// Close drains pending deliveries and closes the inner network.
func (n *Network) Close() error {
	for _, ep := range n.eps {
		ep.close()
	}
	n.wg.Wait()
	return n.inner.Close()
}

// Kill simulates the permanent loss of a peer: every endpoint's
// peer-down handler fires — including the killed node's own, so its
// processor fails blocked waits instead of hanging on peers it can no
// longer reach — and traffic to or from the peer, pending or future, is
// silently discarded. It is the fault the runtime's ErrPeerLost path is
// tested against without a real network. A kill is permanent: a
// recovering harness closes the network and starts a new one.
func (n *Network) Kill(peer amnet.NodeID) {
	if int(peer) >= len(n.killed) || !n.killed[peer].CompareAndSwap(false, true) {
		return
	}
	for _, ep := range n.eps {
		ep.firePeerDown(peer)
	}
}

func (n *Network) isKilled(id amnet.NodeID) bool { return n.killed[id].Load() }

// origin returns the instant partition windows are timed from: the
// first inter-node send, which is now if no send came before.
func (n *Network) origin(now time.Time) time.Time {
	n.startOnce.Do(func() { n.start = now })
	return n.start
}

// partitionedUntil reports whether the (a,b) pair is inside a partition
// window at now (an offset from origin), and if so when the window
// heals.
func (n *Network) partitionedUntil(a, b amnet.NodeID, now time.Duration) (time.Duration, bool) {
	for _, w := range n.policy.Partitions {
		if (int(a) == w.A && int(b) == w.B) || (int(a) == w.B && int(b) == w.A) {
			if now >= w.After && now < w.After+w.For {
				return w.After + w.For, true
			}
		}
	}
	return 0, false
}

// attempt is one wire transmission of a message, the seq-th sent by its
// endpoint, deliverable at due.
type attempt struct {
	seq uint64
	msg amnet.Msg
	due time.Time
}

// attemptHeap orders attempts by due time, then by send order: a link's
// due times never decrease (see link.last), so its messages pop in the
// order they were sent.
type attemptHeap []attempt

func (h attemptHeap) Len() int { return len(h) }
func (h attemptHeap) Less(i, j int) bool {
	if h[i].due.Equal(h[j].due) {
		return h[i].seq < h[j].seq
	}
	return h[i].due.Before(h[j].due)
}
func (h attemptHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *attemptHeap) Push(x any)   { *h = append(*h, x.(attempt)) }
func (h *attemptHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = attempt{}
	*h = old[:n-1]
	return it
}

// link is the per-(src,dst) fault stream and release clock. All fields
// are guarded by the owning endpoint's mu.
type link struct {
	rng *rand.Rand
	// last is the due time of the link's latest message. No message is
	// due before it, so a message the wire holds back (a drop, a
	// partition) holds back every later one on the link as well, and
	// none is released ahead of an earlier one.
	last time.Time
}

// endpoint wraps one inner endpoint. Send runs the fault model and
// schedules wire transmissions; the run goroutine releases them into the
// inner endpoint at their due times.
type endpoint struct {
	nw    *Network
	inner amnet.Endpoint
	links []*link

	mu      sync.Mutex
	heap    attemptHeap
	nextSeq uint64
	closed  bool
	downFn  func(peer amnet.NodeID)
	// downPending buffers peer-down notifications (from the inner
	// transport or Kill) that arrive before a handler is registered.
	downPending []amnet.NodeID

	wake chan struct{}
}

func (e *endpoint) ID() amnet.NodeID                              { return e.inner.ID() }
func (e *endpoint) Nodes() int                                    { return e.inner.Nodes() }
func (e *endpoint) Register(id amnet.HandlerID, fn amnet.Handler) { e.inner.Register(id, fn) }
func (e *endpoint) Stats() *trace.NetStats                        { return e.inner.Stats() }
func (e *endpoint) Poll()                                         { e.inner.Poll() }

// RegisterTry forwards to the inner endpoint, so a message the scheduler
// releases is dispatched directly on the scheduler's goroutine when the
// destination is free, as a sender's would be on the bare fabric.
func (e *endpoint) RegisterTry(id amnet.HandlerID, fn amnet.TryHandler) { e.inner.RegisterTry(id, fn) }

// SetPeerDownHandler implements amnet.PeerAware: fn fires when Kill
// declares a peer lost or the inner transport reports one down.
// Notifications that arrived before registration are replayed.
func (e *endpoint) SetPeerDownHandler(fn func(peer amnet.NodeID)) {
	e.mu.Lock()
	e.downFn = fn
	pending := e.downPending
	e.downPending = nil
	e.mu.Unlock()
	for _, peer := range pending {
		fn(peer)
	}
}

// firePeerDown delivers a peer-down notification to the registered
// handler, buffering it when none is registered yet (the inner
// transport could report a peer down before the runtime attaches its
// handler).
func (e *endpoint) firePeerDown(peer amnet.NodeID) {
	e.mu.Lock()
	fn := e.downFn
	if fn == nil {
		e.downPending = append(e.downPending, peer)
	}
	e.mu.Unlock()
	if fn != nil {
		fn(peer)
	}
}

// Send runs the fault model for one message and schedules its wire
// transmission. It never blocks. Self-sends bypass the fault model
// entirely (the wire is not involved).
//
// The caller's payload-ownership contract is the fabric's: faultnet
// holds the payload by reference until delivery, so it does not
// implement PayloadCopier and the runtime clones payloads before Send
// as it does for the channel network.
func (e *endpoint) Send(m amnet.Msg) {
	if m.Dst == e.inner.ID() {
		e.inner.Send(m)
		return
	}
	if int(m.Dst) < 0 || int(m.Dst) >= len(e.links) {
		panic(fmt.Sprintf("faultnet: send to invalid node %d", m.Dst))
	}
	m.Src = e.inner.ID()
	p := &e.nw.policy
	stats := e.inner.Stats()
	now := time.Now()
	origin := e.nw.origin(now)

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		amnet.Recycle(m.Payload)
		return
	}
	l := e.links[m.Dst]
	due := now
	if p.Delay > 0 {
		due = due.Add(p.Delay)
		stats.CountFault(trace.FaultDelay)
	}
	if p.Jitter > 0 {
		due = due.Add(time.Duration(l.rng.Int63n(int64(p.Jitter))))
		if p.Delay <= 0 {
			stats.CountFault(trace.FaultDelay)
		}
	}
	if healAt, part := e.nw.partitionedUntil(m.Src, m.Dst, now.Sub(origin)); part {
		// The wire eats the transmission; it is redelivered once the
		// window heals.
		due = origin.Add(healAt + redeliverAfter)
		stats.CountFault(trace.FaultPartition)
	} else if p.DropProb > 0 && l.rng.Float64() < p.DropProb {
		due = due.Add(redeliverAfter)
		stats.CountFault(trace.FaultDrop)
	}
	if p.SlowDelay > 0 && int(m.Dst) == p.SlowNode {
		due = due.Add(p.SlowDelay)
		stats.CountFault(trace.FaultSlow)
	}
	if due.Before(l.last) {
		due = l.last
	}
	l.last = due
	e.nextSeq++
	heap.Push(&e.heap, attempt{seq: e.nextSeq, msg: m, due: due})
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
}

// run is the wire scheduler: it releases due attempts into the inner
// endpoint in heap order. One goroutine per endpoint, so releases on a
// link are totally ordered.
func (e *endpoint) run(wg *sync.WaitGroup) {
	defer wg.Done()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	var release []amnet.Msg
	for {
		e.mu.Lock()
		if len(e.heap) == 0 && e.closed {
			e.mu.Unlock()
			return
		}
		now := time.Now()
		var wait time.Duration
		ready := false
		if len(e.heap) > 0 {
			if e.closed {
				ready = true // drain: ignore residual fault delays
			} else if d := e.heap[0].due.Sub(now); d <= 0 {
				ready = true
			} else {
				wait = d
			}
		}
		if !ready {
			e.mu.Unlock()
			if wait > 0 {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(wait)
				select {
				case <-e.wake:
				case <-timer.C:
				}
			} else {
				<-e.wake
			}
			continue
		}
		release = release[:0]
		for len(e.heap) > 0 && (e.closed || !e.heap[0].due.After(now)) {
			release = append(release, heap.Pop(&e.heap).(attempt).msg)
		}
		e.mu.Unlock()
		for i := range release {
			m := release[i]
			if e.nw.isKilled(m.Dst) || e.nw.isKilled(m.Src) {
				amnet.Recycle(m.Payload)
				continue
			}
			e.inner.Send(m)
			release[i] = amnet.Msg{}
		}
	}
}

// close marks the endpoint closed and wakes the scheduler for the
// drain.
func (e *endpoint) close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	select {
	case e.wake <- struct{}{}:
	default:
	}
}
