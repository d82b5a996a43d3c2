// Package amnet provides the Active Messages fabric that the Ace and CRL
// runtimes are built on.
//
// The model follows von Eicken et al.'s Active Messages: a message names a
// handler on the destination node; the handler runs asynchronously to the
// destination's compute thread, may examine the message and send further
// messages (for example a reply), but must never block waiting for network
// events. A node's handlers run one at a time, in arrival order, on
// whichever goroutine holds the node's dispatch token, so handlers on a
// node are serialized with respect to each other.
//
// Every node has a pump goroutine that takes the token, pops what is
// queued and delivers it. Mailboxes are unbounded, which preserves the
// classic Active Messages liveness argument: a send never blocks, so a
// handler can always complete, so every mailbox is eventually drained.
// The pump drains the mailbox in batches (one lock acquisition per burst,
// not per message); see mailbox. Node is that receive side, written once:
// the channel fabric's endpoints and the TCP transport's embed it.
//
// # Direct dispatch
//
// The hop through the mailbox and the pump's wake-up can be skipped (the
// CM-5's Active Messages ran handlers on whichever thread polled; this
// is the fabric-level form of the paper's direct-dispatch
// optimisation). A handler opts in by registering a TryHandler beside
// its Handler (Endpoint.RegisterTry). Node.Dispatch then runs it on the
// goroutine that hands the message over: the sender's own in the
// channel fabric, a connection reader's in the TCP transport, the wire
// scheduler's in package faultnet (which also models wire latency).
// Endpoint.Poll lets a node's compute thread deliver its own backlog
// before it parks. The rules that keep this equivalent to the queued
// path:
//
//   - FIFO. A goroutine dispatches directly only while it holds the
//     node's token and the node's queue is empty. The pump takes the
//     token before it pops and holds it until the batch is delivered, so
//     while any goroutine is dispatching, every other one queues, and
//     nothing queued is ever overtaken. A TryHandler that declines
//     (before any side effect) leaves the message to be queued like any
//     other.
//   - No deadlock by construction. Only the pump blocks on a token, and it
//     holds nothing when it does. A goroutine running handlers it does not
//     own — a sender, a reader, a poller — acquires tokens only with
//     TryLock, and a TryHandler may block only on leaf locks that no code
//     path holds across a Send; anything else it must TryLock and decline
//     on failure. A dispatch chain (a directly dispatched handler sends,
//     and that send dispatches directly) is bounded by the number of
//     nodes in the network, because a token already held in the chain
//     fails TryLock. A transport whose Send can wait (tcpnet's journal
//     bound) must not make a token holder wait: see Node.Busy.
//   - Same counters. CountSend, CountRecv and ObserveDeliver fire on every
//     path.
//
// # Buffer ownership
//
// The fabric pools buffers on its hot path (see Alloc/Recycle). Ownership
// of a message payload moves in one direction: the sender gives up the
// payload at Send (it must not mutate it afterwards), and the receiving
// handler becomes the payload's sole owner at dispatch. A handler — or
// whatever the handler hands the payload to — may pass the buffer to
// Recycle once it has no further use for it, returning it to the pool;
// not recycling is always safe and merely leaves the buffer to the
// garbage collector.
package amnet

import (
	"fmt"
	"sync"

	"github.com/acedsm/ace/internal/trace"
)

// NodeID identifies a logical processor in the cluster. Nodes are numbered
// 0..N-1.
type NodeID int32

// HandlerID names a registered active-message handler on the destination
// node. The runtime reserves a small number of IDs for its own use; see
// package core.
type HandlerID uint16

// MaxHandlers bounds the handler table size on every endpoint.
const MaxHandlers = 256

// Msg is a single active message. A, B, C and D are small scalar arguments
// (typically a region id, a waiter sequence number, and auxiliary values);
// bulk data travels in Payload. On delivery the handler is the payload's
// sole owner (see the package comment's ownership contract): it may read
// it, retain it, or return it to the fabric's buffer pool with Recycle
// when done. It must not mutate a payload it plans to recycle while any
// copy of the slice escapes.
type Msg struct {
	Dst, Src NodeID
	Handler  HandlerID
	A, B, C  uint64
	D        uint64
	Payload  []byte
}

// Handler is the function type invoked for a delivered message. It runs on
// whichever goroutine holds the destination node's dispatch token — the
// node's pump, unless a TryHandler is registered too — and must not block
// on network events (it may send messages). The handler owns m.Payload;
// passing it to Recycle when finished keeps the fabric's buffer pool warm.
type Handler func(Msg)

// TryHandler is a Handler's non-blocking variant, run on the goroutine
// that hands the message over — a sender's, a socket reader's, a wire
// scheduler's (see the package comment). It either handles m exactly as
// the Handler would and returns true, or returns false before any side
// effect, in which case m is queued for the Handler. It must not block
// except on leaf locks that no code path holds across a Send: the
// calling goroutine may hold locks of its own, so anything a Handler
// would wait for — a lock the destination's compute thread holds while
// it sends — a TryHandler must TryLock, and decline when that fails.
type TryHandler func(Msg) bool

// Endpoint is one node's attachment to the network.
type Endpoint interface {
	// ID returns this endpoint's node id.
	ID() NodeID
	// Nodes returns the total number of nodes in the network.
	Nodes() int
	// Register installs fn as the handler for id. It must be called
	// before any message with that handler id arrives; registration
	// after Network.Start is a programming error.
	Register(id HandlerID, fn Handler)
	// RegisterTry installs fn as handler id's non-blocking variant, under
	// the same before-traffic rule as Register. The Handler must be
	// registered as well: it serves every message that was queued.
	RegisterTry(id HandlerID, fn TryHandler)
	// Send enqueues m for delivery to m.Dst. It never blocks and is safe
	// to call from handlers and from compute threads concurrently.
	// Ownership of the payload passes to the fabric: the caller must not
	// mutate it after Send (transports that copy synchronously are
	// identified by the PayloadCopier interface).
	Send(m Msg)
	// Poll delivers, on the calling goroutine, whatever is queued for the
	// node if its token is free, and returns without blocking. Only the
	// node's compute thread may call it, holding no lock a handler takes.
	Poll()
	// Stats returns this endpoint's traffic counters.
	Stats() *trace.NetStats
}

// PayloadCopier is implemented by endpoints whose Send copies the
// payload into transport-owned memory before returning. For such
// transports a sender that needs the buffer back immediately (for
// example, a runtime that would otherwise defensively clone) may skip
// the copy of its own.
type PayloadCopier interface {
	// CopiesPayloadOnSend reports whether Send has finished reading the
	// payload by the time it returns.
	CopiesPayloadOnSend() bool
}

// PeerAware is implemented by endpoints that can detect the loss of a
// peer node (a supervised connection that exhausted its reconnect
// budget, or an injected kill on a fault-injecting transport). The
// runtime registers a handler so blocked synchronization can fail with
// a typed error instead of hanging forever.
type PeerAware interface {
	// SetPeerDownHandler installs fn, called at most once per lost peer.
	// fn may be invoked from a transport goroutine and must not block;
	// it must be installed before traffic starts.
	SetPeerDownHandler(fn func(peer NodeID))
}

// Network is a set of connected endpoints, one per node.
type Network interface {
	Endpoints() []Endpoint
	// Start releases dispatch once the runtime has registered every
	// local handler. A transport that can receive before then (tcpnet:
	// a fast peer's first frames can arrive between Endpoints and
	// Register) holds what arrives until Start, and must also release
	// itself on its first local Send and at Close; for the channel
	// fabric, which receives only what its own endpoints send, it is a
	// no-op.
	Start()
	// Close shuts down delivery. Messages still queued may be dropped.
	Close() error
}

// ChanConfig configures an in-process channel network.
type ChanConfig struct {
	// Nodes is the number of endpoints to create.
	Nodes int
}

// NewChanNetwork builds an in-process network of n endpoints connected by
// unbounded mailboxes, one pump goroutine per node.
func NewChanNetwork(cfg ChanConfig) (Network, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("amnet: invalid node count %d", cfg.Nodes)
	}
	nw := &chanNetwork{eps: make([]*chanEndpoint, cfg.Nodes)}
	for i := range nw.eps {
		nw.eps[i] = &chanEndpoint{Node: NewNode(NodeID(i), headerBytes), nw: nw}
	}
	for _, ep := range nw.eps {
		nw.wg.Add(1)
		go func() {
			defer nw.wg.Done()
			ep.Serve()
		}()
	}
	return nw, nil
}

type chanNetwork struct {
	eps []*chanEndpoint
	wg  sync.WaitGroup
}

func (n *chanNetwork) Endpoints() []Endpoint {
	out := make([]Endpoint, len(n.eps))
	for i, ep := range n.eps {
		out[i] = ep
	}
	return out
}

// Start implements Network; the channel fabric needs no gate.
func (n *chanNetwork) Start() {}

func (n *chanNetwork) Close() error {
	for _, ep := range n.eps {
		ep.Close()
	}
	n.wg.Wait()
	return nil
}

// chanEndpoint is one node's attachment: its Node, drained by its pump
// goroutine, and the network that routes its sends.
type chanEndpoint struct {
	*Node
	nw *chanNetwork
}

func (e *chanEndpoint) Nodes() int { return len(e.nw.eps) }

// Send dispatches m at its destination on the calling goroutine (see
// Node.Dispatch).
func (e *chanEndpoint) Send(m Msg) {
	if int(m.Dst) < 0 || int(m.Dst) >= len(e.nw.eps) {
		panic(fmt.Sprintf("amnet: send to invalid node %d", m.Dst))
	}
	m.Src = e.ID()
	sent := e.CountSend(&m)
	e.nw.eps[m.Dst].Dispatch(m, sent)
}
