package amnet

import (
	"sync"

	"github.com/acedsm/ace/internal/trace"
)

// item is a queued message plus, when latency sampling is on, its send
// stamp on the trace clock.
type item struct {
	msg  Msg
	sent int64
}

// mailbox is one node's unbounded inbound queue: many senders, one
// consumer at a time — whoever holds the dispatch token. Unboundedness
// is load-bearing — see the package comment. The consumer drains in
// batches: tryPopAll swaps the whole pending slice out under one lock
// acquisition, so a burst of n messages costs it one lock/wake instead
// of n.
//
// Wakeups use an edge-triggered capacity-1 channel rather than a
// sync.Cond: the consumer parks holding no lock, a push signals after it
// has released mu, and close wakes the consumer for good by closing done.
type mailbox struct {
	mu     sync.Mutex
	q      []item
	closed bool

	// notify holds one token when items may be pending. push stores the
	// token after appending; consumers re-check the queue after taking
	// it, so a wakeup is never lost (at most one is spurious).
	notify chan struct{}
	// done is closed by close(); it wakes consumers permanently.
	done chan struct{}

	// token is the node's dispatch token: a goroutine runs this node's
	// handlers only while holding it. The pump takes it (blocking) before
	// it pops and keeps it until the batch is delivered; a sender or a
	// polling application thread may only TryLock it — see the package
	// comment's direct-dispatch rules.
	token sync.Mutex
	// spare is the last drained batch, recycled as the pending slice at
	// the next pop. Owned by the token holder.
	spare []item
}

func newMailbox() *mailbox {
	return &mailbox{
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// push queues it. After close the item is dropped and its payload
// recycled: the fabric owns a payload from Send until a handler gets it.
func (b *mailbox) push(it item) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		Recycle(it.msg.Payload)
		return
	}
	b.q = append(b.q, it)
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// idle reports whether the mailbox is open with nothing pending. While
// the caller holds the token nothing can be popped, so a false answer
// stays false until it lets go.
func (b *mailbox) idle() bool {
	b.mu.Lock()
	idle := len(b.q) == 0 && !b.closed
	b.mu.Unlock()
	return idle
}

// tryPopAll swaps the whole pending slice with `into` (reset to length
// zero) and returns it (ok=true), or returns an empty slice plus whether
// the mailbox is closed. It never blocks; consumers park in await. The
// caller owns the returned slice until it passes it back in.
func (b *mailbox) tryPopAll(into []item) (batch []item, ok, closed bool) {
	b.mu.Lock()
	if len(b.q) > 0 {
		batch = b.q
		b.q = into[:0]
		b.mu.Unlock()
		return batch, true, false
	}
	closed = b.closed
	b.mu.Unlock()
	return into[:0], false, closed
}

// serve is one turn of the consumer loop: deliver what is pending, or
// park until something may be. It reports false once the mailbox is
// closed and drained.
func (b *mailbox) serve(deliver func(m Msg, sent int64)) (live bool) {
	// The token is taken before the pop and kept until the batch is
	// delivered: a sender that finds the queue empty and the token free
	// knows nothing of this node's is in flight ahead of it. Close drains
	// through here too, so it also waits out a direct dispatch still
	// running on the node.
	b.token.Lock()
	ok, closed := b.drain(deliver)
	b.token.Unlock()
	if !ok {
		if closed {
			return false
		}
		b.await()
	}
	return true
}

// drain pops everything pending and hands it to deliver in order,
// reporting whether there was anything and, if not, whether the mailbox
// is closed. The caller holds the token.
func (b *mailbox) drain(deliver func(m Msg, sent int64)) (ok, closed bool) {
	batch, ok, closed := b.tryPopAll(b.spare)
	for i := range batch {
		deliver(batch[i].msg, batch[i].sent)
		batch[i] = item{} // drop payload references promptly
	}
	b.spare = batch
	return ok, closed
}

// dispatchDirect runs try on the item on the calling goroutine if the
// node is free, reporting whether it did; on false the caller queues
// the message, so it is delivered exactly once either way. A direct
// delivery is counted in stats as size received bytes.
func (b *mailbox) dispatchDirect(try TryHandler, it item, stats *trace.NetStats, size int) (done bool) {
	// TryLock only: the caller may hold locks and tokens of its own (it
	// may itself be a directly dispatched handler), so it never waits for
	// one. A held token means the pump or another goroutine is
	// dispatching, and queueing behind it is what keeps the node FIFO.
	if !b.token.TryLock() {
		return false
	}
	defer fatalOnPanic()
	// FIFO: only an empty mailbox may be bypassed. Pops need the token, so
	// anything already queued stays queued until we let go, and this
	// message must go behind it.
	if b.idle() {
		if done = try(it.msg); done {
			stats.ObserveDeliver(it.sent)
			stats.CountRecv(trace.RecvDirect, size)
		}
	}
	b.token.Unlock()
	return done
}

// poll delivers the backlog on the calling goroutine if the token is
// free, and returns at once if it is not: a node whose token is taken
// is being dispatched already.
func (b *mailbox) poll(deliver func(m Msg, sent int64)) {
	defer fatalOnPanic()
	if b.token.TryLock() {
		b.drain(deliver)
		b.token.Unlock()
	}
}

// busy reports whether some goroutine — the caller included — holds the
// node's token.
func (b *mailbox) busy() bool {
	if b.token.TryLock() {
		b.token.Unlock()
		return false
	}
	return true
}

// await blocks until new input may be pending or the mailbox is closed.
func (b *mailbox) await() {
	select {
	case <-b.notify:
	case <-b.done:
	}
}

// close marks the mailbox closed and wakes all consumers. Items already
// queued remain poppable (close-then-drain semantics).
func (b *mailbox) close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.done)
}

// Inbox is a node's mailbox and consumer loop for a transport that
// receives off the wire (tcpnet): its readers Push or DispatchDirect,
// one pump goroutine Serves, and the node's compute thread may Poll. It
// is the channel fabric's own mailbox — unbounded, popped in batches,
// drained after Close — with the same token and the same
// direct-dispatch code.
type Inbox struct{ box *mailbox }

// NewInbox returns an open, empty inbox.
func NewInbox() *Inbox { return &Inbox{box: newMailbox()} }

// Push queues m, stamped sent on the trace clock, for Serve. It never
// blocks. After Close, m is dropped and its payload recycled.
func (in *Inbox) Push(m Msg, sent int64) { in.box.push(item{msg: m, sent: sent}) }

// DispatchDirect runs try on m on the calling goroutine if the node's
// token is free and nothing is queued, counting the delivery in stats
// as direct with size bytes, and reports whether try accepted m. On
// false the caller Pushes m. The package comment's direct-dispatch
// rules bind the caller.
func (in *Inbox) DispatchDirect(try TryHandler, m Msg, sent int64, stats *trace.NetStats, size int) bool {
	return in.box.dispatchDirect(try, item{msg: m, sent: sent}, stats, size)
}

// Poll hands what is queued to deliver on the calling goroutine if the
// node's token is free, and returns without blocking (see
// DirectDispatcher.Poll).
func (in *Inbox) Poll(deliver func(m Msg, sent int64)) { in.box.poll(deliver) }

// Busy reports whether some goroutine, the caller included, holds the
// node's dispatch token: a pump, a poller or a direct dispatcher.
func (in *Inbox) Busy() bool { return in.box.busy() }

// Serve hands each queued message to deliver, one at a time in push
// order, parks while the inbox is empty, and returns once Close has been
// called and everything pushed before it has been delivered.
func (in *Inbox) Serve(deliver func(m Msg, sent int64)) {
	for in.box.serve(deliver) {
	}
}

// Close makes later pushes drop and lets Serve return once it has
// drained what is queued.
func (in *Inbox) Close() { in.box.close() }
