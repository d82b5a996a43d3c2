package amnet

import (
	"sync"
	"sync/atomic"
)

// mailbox is one node's unbounded inbound queue: many senders, one
// consumer at a time — whoever holds the node's dispatch token (see
// Node). Unboundedness
// is load-bearing — see the package comment. The consumer drains in
// batches: tryPopAll swaps the whole pending slice out under one lock
// acquisition, so a burst of n messages costs it one lock/wake instead
// of n.
//
// Wakeups use an edge-triggered capacity-1 channel rather than a
// sync.Cond: the consumer parks holding no lock, a push signals after it
// has released mu, and close wakes the consumer for good by closing done.
type mailbox struct {
	mu sync.Mutex
	q  []Msg
	// depth is len(q) and closed the close mark, both written under mu
	// and atomic so idle and Node.Poll read them without it.
	depth  atomic.Int64
	closed atomic.Bool

	// notify holds one token when messages may be pending. push stores
	// the token after appending; consumers re-check the queue after
	// taking it, so a wakeup is never lost (at most one is spurious).
	notify chan struct{}
	// done is closed by close(); it wakes consumers permanently.
	done chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
}

// push queues m. After close m is dropped and its payload recycled: the
// fabric owns a payload from Send until a handler gets it.
func (b *mailbox) push(m Msg) {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		Recycle(m.Payload)
		return
	}
	b.q = append(b.q, m)
	b.depth.Store(int64(len(b.q)))
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// idle reports whether the mailbox is open with nothing pending. While
// the caller holds the token nothing can be popped, so a false answer
// stays false until it lets go. It takes no lock: a push that has
// returned has published its depth, and one still in flight is
// concurrent with the caller's message, so either order is FIFO.
func (b *mailbox) idle() bool {
	return b.depth.Load() == 0 && !b.closed.Load()
}

// tryPopAll swaps the whole pending slice with `into` (reset to length
// zero) and returns it (ok=true), or returns an empty slice plus whether
// the mailbox is closed. It never blocks; consumers park in await. The
// caller owns the returned slice until it passes it back in.
func (b *mailbox) tryPopAll(into []Msg) (batch []Msg, ok, closed bool) {
	b.mu.Lock()
	if len(b.q) > 0 {
		batch = b.q
		b.q = into[:0]
		b.depth.Store(0)
		b.mu.Unlock()
		return batch, true, false
	}
	closed = b.closed.Load()
	b.mu.Unlock()
	return into[:0], false, closed
}

// await blocks until new input may be pending or the mailbox is closed.
func (b *mailbox) await() {
	select {
	case <-b.notify:
	case <-b.done:
	}
}

// close marks the mailbox closed and wakes all consumers. Messages
// already queued remain poppable (close-then-drain semantics).
func (b *mailbox) close() {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return
	}
	b.closed.Store(true)
	b.mu.Unlock()
	close(b.done)
}
