package amnet

import (
	"sync"
	"time"
)

// item is a queued message plus its earliest delivery time (zero for
// immediate delivery) and, when latency sampling is on, its send stamp
// on the trace clock.
type item struct {
	msg  Msg
	due  time.Time
	sent int64
}

// mailbox is one dispatch lane's unbounded queue: many senders, one
// consumer at a time — whoever holds the dispatch token. Unboundedness
// is load-bearing — see the package comment. The consumer drains in
// batches: tryPopAll swaps the whole pending slice out under one lock
// acquisition, so a burst of n messages costs it one lock/wake instead
// of n.
//
// Wakeups use an edge-triggered capacity-1 channel rather than a
// sync.Cond so the pump can wait for "new input or a delivery timer",
// which the latency-modelling pump needs (select over notify and a
// time.Timer).
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

	// token is the lane's dispatch token: a goroutine runs this lane's
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

func (b *mailbox) push(it item) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
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

// await blocks until new input may be pending, the mailbox is closed, or
// — when d > 0 — the timeout elapses.
func (b *mailbox) await(d time.Duration) {
	if d <= 0 {
		select {
		case <-b.notify:
		case <-b.done:
		}
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-b.notify:
	case <-b.done:
	case <-t.C:
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
