package amnet

import (
	"sync"
	"testing"
	"time"
)

// consumer is an endpoint without a pump goroutine, so a test can turn
// the pump's own loop body (serve) by hand and see every item it
// delivers.
func consumer(onItem func(Msg)) (*chanEndpoint, *mailbox) {
	b := newMailbox()
	e := &chanEndpoint{box: b}
	e.Register(0, onItem)
	return e, b
}

func TestMailboxBatchedPop(t *testing.T) {
	b := newMailbox()
	const n = 100
	for i := 0; i < n; i++ {
		b.push(item{msg: Msg{A: uint64(i)}})
	}
	batch, ok, _ := b.tryPopAll(nil)
	if !ok {
		t.Fatal("tryPopAll found nothing")
	}
	if len(batch) != n {
		t.Fatalf("batched pop returned %d items, want %d in one swap", len(batch), n)
	}
	for i, it := range batch {
		if it.msg.A != uint64(i) {
			t.Fatalf("out of order at %d: got %d", i, it.msg.A)
		}
	}
	// The slice passed back in becomes the backing array for subsequent
	// pushes, so the following round's batch reuses its capacity.
	b.push(item{msg: Msg{A: 1}})
	b.tryPopAll(batch) // pending becomes batch[:0]
	b.push(item{msg: Msg{A: 2}})
	again, ok, _ := b.tryPopAll(nil)
	if !ok || len(again) != 1 || again[0].msg.A != 2 {
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
				b.push(item{msg: Msg{Src: NodeID(s), A: uint64(i)}})
			}
		}(s)
	}
	go func() {
		wg.Wait()
		b.close()
	}()
	for b.serve(e.deliver) {
	}
	if total != senders*perSender {
		t.Fatalf("drained %d items, want %d", total, senders*perSender)
	}
}

func TestMailboxCloseWhileNonEmptyDrains(t *testing.T) {
	got := 0
	e, b := consumer(func(Msg) { got++ })
	for i := 0; i < 5; i++ {
		b.push(item{msg: Msg{A: uint64(i)}})
	}
	b.close()
	if !b.serve(e.deliver) || got != 5 {
		t.Fatalf("first turn after close delivered %d items; want 5 and a live mailbox", got)
	}
	if b.serve(e.deliver) {
		t.Fatal("drained mailbox still live after close")
	}
	// Pushes after close are dropped, and the mailbox stays terminal.
	b.push(item{msg: Msg{A: 99}})
	if b.serve(e.deliver) || got != 5 {
		t.Fatalf("push after close was queued: %d items delivered", got)
	}
}

func TestMailboxAwaitTimer(t *testing.T) {
	b := newMailbox()
	start := time.Now()
	b.await(10 * time.Millisecond)
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Fatalf("await returned after %v, want ~10ms", el)
	}
	// A pending notification returns immediately.
	b.push(item{})
	b.tryPopAll(nil)
	b.push(item{})
	start = time.Now()
	b.await(time.Second)
	if el := time.Since(start); el > 500*time.Millisecond {
		t.Fatalf("await ignored notify, blocked %v", el)
	}
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

// TestLatencyNoHeadOfLineBlocking sends two delayed messages ε apart and
// checks they arrive ε apart (each at its own due time), and that a
// latency-free self-send overtakes a delayed message rather than queueing
// behind it.
func TestLatencyNoHeadOfLineBlocking(t *testing.T) {
	const lat = 60 * time.Millisecond
	const eps = 15 * time.Millisecond
	nw, err := NewChanNetwork(ChanConfig{Nodes: 2, Latency: lat})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	es := nw.Endpoints()
	arrivals := make(chan struct {
		a  uint64
		at time.Time
	}, 4)
	es[1].Register(1, func(m Msg) {
		arrivals <- struct {
			a  uint64
			at time.Time
		}{m.A, time.Now()}
	})
	selfGot := make(chan time.Time, 1)
	es[1].Register(2, func(m Msg) { selfGot <- time.Now() })

	start := time.Now()
	es[0].Send(Msg{Dst: 1, Handler: 1, A: 1})
	time.Sleep(eps)
	es[0].Send(Msg{Dst: 1, Handler: 1, A: 2})
	// While both remote messages are still in flight, a self-send on the
	// destination must be delivered immediately.
	es[1].Send(Msg{Dst: 1, Handler: 2})
	select {
	case at := <-selfGot:
		if d := at.Sub(start); d > lat/2 {
			t.Errorf("self-send waited %v behind delayed traffic", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("self-send never delivered")
	}

	var at1, at2 time.Time
	for i := 0; i < 2; i++ {
		select {
		case a := <-arrivals:
			if a.a == 1 {
				at1 = a.at
			} else {
				at2 = a.at
			}
		case <-time.After(2 * time.Second):
			t.Fatal("delayed message never delivered")
		}
	}
	if d := at1.Sub(start); d < lat-5*time.Millisecond {
		t.Errorf("first message arrived after %v, want >= ~%v", d, lat)
	}
	if gap := at2.Sub(at1); gap > lat/2 {
		t.Errorf("messages sent %v apart arrived %v apart (head-of-line blocking)", eps, gap)
	}
}
