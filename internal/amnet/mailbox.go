package amnet

import "sync"

// item is a queued message plus, when latency sampling is on, its send
// stamp on the trace clock.
type item struct {
	msg  Msg
	sent int64
}

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
	mu     sync.Mutex
	q      []item
	closed bool

	// notify holds one token when items may be pending. push stores the
	// token after appending; consumers re-check the queue after taking
	// it, so a wakeup is never lost (at most one is spurious).
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
