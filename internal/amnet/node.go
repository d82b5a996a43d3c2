package amnet

import (
	"fmt"
	"runtime/debug"
	"sync"

	"github.com/acedsm/ace/internal/trace"
)

// Node is one endpoint's receive side, written once for every transport:
// the handler tables, the mailbox with the node's dispatch token, and the
// traffic counters. The channel fabric's endpoint and tcpnet's embed it;
// they differ only in what hands a message to Dispatch (a sender's Send,
// a connection reader) and in the header bytes they account per message.
type Node struct {
	id     NodeID
	header int // accounted bytes of a message beyond its payload
	box    *mailbox
	// token is the node's dispatch token: a goroutine runs this node's
	// handlers only while holding it. The pump takes it (blocking) before
	// it pops and keeps it until the batch is delivered; a sender, a
	// reader or a polling application thread may only TryLock it — see
	// the package comment's direct-dispatch rules.
	token sync.Mutex
	// spare is the last drained batch, recycled as the pending slice at
	// the next pop. Owned by the token holder.
	spare    []Msg
	handlers [MaxHandlers]Handler
	tries    [MaxHandlers]TryHandler
	stats    trace.NetStats
}

// NewNode returns node id's receive side with an open, empty mailbox.
// header is the per-message cost, in bytes beside the payload, that the
// transport's counters account.
func NewNode(id NodeID, header int) *Node {
	return &Node{id: id, header: header, box: newMailbox()}
}

// ID returns the node's id.
func (n *Node) ID() NodeID { return n.id }

// Register installs fn as the handler for id (see Endpoint).
func (n *Node) Register(id HandlerID, fn Handler) { n.handlers[slot(id)] = fn }

// RegisterTry installs fn as handler id's non-blocking variant (see
// Endpoint).
func (n *Node) RegisterTry(id HandlerID, fn TryHandler) { n.tries[slot(id)] = fn }

// slot is the handler tables' range check.
func slot(id HandlerID) HandlerID {
	if int(id) >= MaxHandlers {
		panic(fmt.Sprintf("amnet: handler id %d out of range", id))
	}
	return id
}

// Stats returns the node's traffic counters.
func (n *Node) Stats() *trace.NetStats { return &n.stats }

// CountSend counts m as sent by this node.
func (n *Node) CountSend(m *Msg) { n.stats.CountSend(n.header + len(m.Payload)) }

// Dispatch hands m to the node: its TryHandler runs on the calling
// goroutine if the node's token is free and nothing is queued, and m is
// queued otherwise, or when the TryHandler declines. It never blocks on
// the token. The package comment's direct-dispatch rules bind the
// caller.
func (n *Node) Dispatch(m Msg) {
	if try := n.tries[m.Handler]; try == nil || !n.dispatchDirect(try, m) {
		n.Queue(m)
	}
}

// dispatchDirect runs try on m if the node is free, reporting whether it
// did; on false the caller queues m, so it is delivered exactly once
// either way.
func (n *Node) dispatchDirect(try TryHandler, m Msg) (done bool) {
	// TryLock only: the caller may hold locks and tokens of its own (it
	// may itself be a directly dispatched handler), so it never waits for
	// one. A held token means the pump or another goroutine is
	// dispatching, and queueing behind it is what keeps the node FIFO.
	if !n.token.TryLock() {
		return false
	}
	defer fatalOnPanic()
	// FIFO: only an empty mailbox may be bypassed. Pops need the token, so
	// anything already queued stays queued until we let go, and this
	// message must go behind it.
	if n.box.idle() {
		if done = try(m); done {
			n.received(&m, trace.RecvDirect)
		}
	}
	n.token.Unlock()
	return done
}

// Queue queues m for the pump or a Poll. It never blocks. After Close, m
// is dropped and its payload recycled.
func (n *Node) Queue(m Msg) { n.box.push(m) }

// Serve is the node's pump loop: it delivers what is queued, one handler
// at a time in queue order, parks while nothing is, and returns once
// Close has been called and the backlog is delivered.
func (n *Node) Serve() {
	for n.serve() {
	}
}

// serve is one turn of the pump loop. It reports false once the mailbox
// is closed and drained.
func (n *Node) serve() (live bool) {
	// The token is taken before the pop and kept until the batch is
	// delivered: a sender that finds the queue empty and the token free
	// knows nothing of this node's is in flight ahead of it. Close drains
	// through here too, so it also waits out a direct dispatch still
	// running on the node.
	n.token.Lock()
	ok, closed := n.drain(trace.RecvPumped)
	n.token.Unlock()
	if !ok {
		if closed {
			return false
		}
		n.box.await()
	}
	return true
}

// Poll delivers, on the calling goroutine, whatever is queued if the
// node's token is free, and returns at once if it is not: a node whose
// token is taken is being dispatched already. An empty mailbox returns
// before the token is touched, so a poll never turns a sender's direct
// dispatch into a queued one.
func (n *Node) Poll() {
	if n.box.depth.Load() == 0 {
		return
	}
	defer fatalOnPanic()
	if n.token.TryLock() {
		n.drain(trace.RecvPolled)
		n.token.Unlock()
	}
}

// drain pops everything pending and delivers it in order, counted
// against path, reporting whether there was anything and, if not,
// whether the mailbox is closed. The caller holds the token.
func (n *Node) drain(path trace.RecvPath) (ok, closed bool) {
	batch, ok, closed := n.box.tryPopAll(n.spare)
	for i := range batch {
		n.deliver(batch[i], path)
		batch[i] = Msg{} // drop payload references promptly
	}
	n.spare = batch
	return ok, closed
}

// Busy reports whether some goroutine, the caller included, holds the
// node's dispatch token: a pump, a poller or a direct dispatcher.
func (n *Node) Busy() bool {
	if n.token.TryLock() {
		n.token.Unlock()
		return false
	}
	return true
}

// Close makes later Queues drop and lets Serve return once it has
// delivered what is queued.
func (n *Node) Close() { n.box.close() }

// deliver runs m's Handler, counting it against path.
func (n *Node) deliver(m Msg, path trace.RecvPath) {
	n.received(&m, path)
	h := n.handlers[m.Handler]
	if h == nil {
		panic(fmt.Sprintf("amnet: node %d: no handler %d registered (msg from %d)", n.id, m.Handler, m.Src))
	}
	h(m)
}

// received counts one delivery of m against path.
func (n *Node) received(m *Msg, path trace.RecvPath) {
	n.stats.CountRecv(path, n.header+len(m.Payload))
}

// fatalOnPanic is deferred wherever handlers run on a goroutine the
// fabric does not own. A handler panic is a runtime bug and kills the
// process when it happens on a pump; a caller up the borrowed stack (the
// runtime's Run recovers application panics) must not be able to swallow
// it and carry on with the token, and whatever the handler had locked,
// still held. Re-raising on a fresh goroutine keeps it fatal.
func fatalOnPanic() {
	if r := recover(); r != nil {
		go panic(fmt.Sprintf("amnet: handler panicked under direct dispatch: %v\n\n%s", r, debug.Stack()))
		select {}
	}
}
