package tcpnet

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
)

// TestFrameAfterCloseIsRecycled: a frame queued at a node after Close is
// dropped with its payload returned to the buffer pool, so the next
// Alloc of that size class can hand the same buffer out again.
// sync.Pool may drop a Put (it does so at random under -race), hence
// the retries: one reuse proves the recycle.
func TestFrameAfterCloseIsRecycled(t *testing.T) {
	nw, err := New(Loopback(1))
	if err != nil {
		t.Fatal(err)
	}
	nw.Close()
	ep := nw.(*network).eps[0]
	const size = 40 << 10 // a size class no other traffic here uses
	for trial := 0; trial < 64; trial++ {
		p := amnet.Alloc(size)
		ep.Queue(amnet.Msg{Handler: 9, Payload: p})
		if q := amnet.Alloc(size); &q[0] == &p[0] {
			return
		}
	}
	t.Fatal("payload of a frame queued after Close never came back from the pool")
}

// TestCloseUnderLoadLeaksNoGoroutines closes a mesh while senders are
// still flooding it: every pump, reader, writer, probe and accept loop
// must be gone afterwards, as amnet's TestCloseLeaksNoPumpGoroutines
// demands of the channel fabric.
func TestCloseUnderLoadLeaksNoGoroutines(t *testing.T) {
	for round := 0; round < 3; round++ {
		nw, err := New(Loopback(3))
		if err != nil {
			t.Fatal(err)
		}
		eps := nw.Endpoints()
		var delivered atomic.Int64
		for _, ep := range eps {
			ep.Register(9, func(m amnet.Msg) {
				amnet.Recycle(m.Payload)
				delivered.Add(1)
			})
		}
		var wg sync.WaitGroup
		for src := range eps {
			wg.Add(1)
			go func(src int) {
				defer wg.Done()
				payload := make([]byte, 64)
				for i := 0; i < 20000; i++ {
					eps[src].Send(amnet.Msg{Dst: amnet.NodeID(i % len(eps)), Handler: 9, Payload: payload})
				}
			}(src)
		}
		for delivered.Load() < 1000 {
			time.Sleep(time.Millisecond)
		}
		if err := nw.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		if !strings.Contains(stacks, "tcpnet.(*") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("tcpnet goroutines outlived Close:\n%s", stacks)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRegisterOutOfRange(t *testing.T) {
	nw, err := New(Loopback(1))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Register(MaxHandlers) did not panic")
		}
	}()
	nw.Endpoints()[0].Register(amnet.MaxHandlers, func(amnet.Msg) {})
}

// TestConcurrentSendersFIFO drives several sender goroutines per source
// node at one destination and checks per-pair FIFO survives the
// coalescing writer. Run under -race this also exercises the writer
// goroutines and pooled buffers for data races.
func TestConcurrentSendersFIFO(t *testing.T) {
	const nodes = 4
	const perSender = 3000
	nw, err := New(Loopback(nodes))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := nw.Endpoints()
	var next [nodes]uint64
	done := make(chan struct{})
	seen := 0
	eps[0].Register(11, func(m amnet.Msg) {
		if m.A != next[m.Src] {
			t.Errorf("src %d out of order: got %d, want %d", m.Src, m.A, next[m.Src])
		}
		next[m.Src]++
		seen++
		if seen == (nodes-1)*perSender {
			close(done)
		}
	})
	var wg sync.WaitGroup
	for src := 1; src < nodes; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			payload := []byte("coalesce me")
			for i := 0; i < perSender; i++ {
				eps[src].Send(amnet.Msg{Dst: 0, Handler: 11, A: uint64(i), Payload: payload})
			}
		}(src)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("only %d of %d delivered", seen, (nodes-1)*perSender)
	}
}

// TestPayloadOwnershipAcrossPool checks a delivered payload stays intact
// when the receiving handler retains it while later traffic reuses pooled
// buffers, and that recycling inside the handler is safe.
func TestPayloadOwnershipAcrossPool(t *testing.T) {
	nw, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := nw.Endpoints()
	const n = 200
	kept := make([][]byte, 0, n)
	done := make(chan struct{})
	eps[1].Register(12, func(m amnet.Msg) {
		if len(kept)%2 == 0 {
			// Retain every other payload; the fabric must not reuse it.
			kept = append(kept, m.Payload)
		} else {
			kept = append(kept, append([]byte(nil), m.Payload...))
			amnet.Recycle(m.Payload)
		}
		if len(kept) == n {
			close(done)
		}
	})
	for i := 0; i < n; i++ {
		payload := make([]byte, 32)
		payload[0] = byte(i)
		payload[31] = byte(i >> 8)
		eps[0].Send(amnet.Msg{Dst: 1, Handler: 12, A: uint64(i), Payload: payload})
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d of %d delivered", len(kept), n)
	}
	for i, p := range kept {
		if i%2 != 0 {
			continue // recycled ones were copied
		}
		if p[0] != byte(i) || p[31] != byte(i>>8) {
			t.Fatalf("retained payload %d corrupted: [%d %d]", i, p[0], p[31])
		}
	}
}

// TestCopiesPayloadOnSend asserts the transport advertises its
// synchronous payload copy (the runtime skips its defensive clone based
// on this), and that mutating the caller's buffer right after Send does
// not corrupt the wire data.
func TestCopiesPayloadOnSend(t *testing.T) {
	nw, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := nw.Endpoints()
	pc, ok := eps[0].(amnet.PayloadCopier)
	if !ok || !pc.CopiesPayloadOnSend() {
		t.Fatal("tcpnet endpoint does not advertise synchronous payload copy")
	}
	got := make(chan []byte, 1)
	eps[1].Register(13, func(m amnet.Msg) { got <- m.Payload })
	buf := []byte("before")
	eps[0].Send(amnet.Msg{Dst: 1, Handler: 13, Payload: buf})
	copy(buf, "XXXXXX") // caller reuses its buffer immediately
	select {
	case p := <-got:
		if string(p) != "before" {
			t.Fatalf("wire payload = %q, want %q", p, "before")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}
