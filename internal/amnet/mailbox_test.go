package amnet

import (
	"sync"
	"testing"
	"time"
)

// consumer is a Node without a pump goroutine, so a test can turn the
// pump's own loop body (serve) by hand and see every item it delivers.
func consumer(onItem func(Msg)) (*Node, *mailbox) {
	n := NewNode(0, 0)
	n.Register(0, onItem)
	return n, n.box
}

func TestMailboxBatchedPop(t *testing.T) {
	b := newMailbox()
	const n = 100
	for i := 0; i < n; i++ {
		b.push(Msg{A: uint64(i)})
	}
	batch, ok, _ := b.tryPopAll(nil)
	if !ok {
		t.Fatal("tryPopAll found nothing")
	}
	if len(batch) != n {
		t.Fatalf("batched pop returned %d items, want %d in one swap", len(batch), n)
	}
	for i, it := range batch {
		if it.A != uint64(i) {
			t.Fatalf("out of order at %d: got %d", i, it.A)
		}
	}
	// The slice passed back in becomes the backing array for subsequent
	// pushes, so the following round's batch reuses its capacity.
	b.push(Msg{A: 1})
	b.tryPopAll(batch) // pending becomes batch[:0]
	b.push(Msg{A: 2})
	again, ok, _ := b.tryPopAll(nil)
	if !ok || len(again) != 1 || again[0].A != 2 {
		t.Fatalf("tryPopAll after recycle = %+v, ok=%v", again, ok)
	}
	if cap(again) != cap(batch) {
		t.Errorf("pending slice not recycled: cap %d, want %d", cap(again), cap(batch))
	}
}

func TestMailboxFIFOPerSenderUnderConcurrentPush(t *testing.T) {
	const senders = 8
	const perSender = 2000
	next := [senders]uint64{}
	total := 0
	e, b := consumer(func(m Msg) {
		if m.A != next[m.Src] {
			t.Errorf("sender %d out of order: got %d, want %d", m.Src, m.A, next[m.Src])
		}
		next[m.Src] = m.A + 1
		total++
	})
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				b.push(Msg{Src: NodeID(s), A: uint64(i)})
			}
		}(s)
	}
	go func() {
		wg.Wait()
		b.close()
	}()
	for e.serve() {
	}
	if total != senders*perSender {
		t.Fatalf("drained %d items, want %d", total, senders*perSender)
	}
}

func TestMailboxCloseWhileNonEmptyDrains(t *testing.T) {
	got := 0
	e, b := consumer(func(Msg) { got++ })
	for i := 0; i < 5; i++ {
		b.push(Msg{A: uint64(i)})
	}
	b.close()
	if !e.serve() || got != 5 {
		t.Fatalf("first turn after close delivered %d items; want 5 and a live mailbox", got)
	}
	if e.serve() {
		t.Fatal("drained mailbox still live after close")
	}
	// Pushes after close are dropped, and the mailbox stays terminal.
	b.push(Msg{A: 99})
	if e.serve() || got != 5 {
		t.Fatalf("push after close was queued: %d items delivered", got)
	}
}

// TestMailboxAwaitTimer: await parks until a push — here one a timer
// fires — or close wakes it, and a wakeup already pending returns at once.
func TestMailboxAwaitTimer(t *testing.T) {
	b := newMailbox()
	start := time.Now()
	time.AfterFunc(10*time.Millisecond, func() { b.push(Msg{}) })
	b.await()
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Fatalf("await returned after %v, before the push at ~10ms", el)
	}
	// The push's wakeup was consumed; a fresh one is pending now.
	b.push(Msg{})
	start = time.Now()
	b.await()
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("await ignored a pending notify, blocked %v", el)
	}
	time.AfterFunc(10*time.Millisecond, b.close)
	b.await()
	b.await() // closed: never parks again
}

func TestAllocRecycleClasses(t *testing.T) {
	if Alloc(0) != nil {
		t.Error("Alloc(0) != nil")
	}
	for _, n := range []int{1, 63, 64, 65, 1000, 16384, 65536} {
		b := Alloc(n)
		if len(b) != n {
			t.Fatalf("Alloc(%d) len = %d", n, len(b))
		}
		want := poolClasses[classFor(n)]
		if cap(b) != want {
			t.Errorf("Alloc(%d) cap = %d, want class %d", n, cap(b), want)
		}
		Recycle(b)
	}
	// Oversize allocations bypass the pool.
	big := Alloc(poolClasses[len(poolClasses)-1] + 1)
	if len(big) != poolClasses[len(poolClasses)-1]+1 {
		t.Fatalf("oversize Alloc len = %d", len(big))
	}
	Recycle(big) // must be a no-op, not a panic
}

func TestRecycleReuse(t *testing.T) {
	// A recycled buffer of a class size comes back from the pool. sync.Pool
	// gives no hard guarantee, so accept either, but verify the contents
	// path: a reused buffer has the right length and is writable.
	b := Alloc(100)
	b[0] = 0xAB
	Recycle(b)
	c := Alloc(100)
	if len(c) != 100 || cap(c) != 256 {
		t.Fatalf("realloc len=%d cap=%d", len(c), cap(c))
	}
	c[0] = 0xCD
	Recycle(c)
	// Foreign buffers (capacity not a class) are silently ignored.
	Recycle(make([]byte, 100)) // cap 100 ≠ any class on typical allocators
	var stack [8]byte
	Recycle(stack[:])
	Recycle(nil)
}
