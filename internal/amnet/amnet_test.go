package amnet

import (
	"github.com/acedsm/ace/internal/trace"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestNet(t *testing.T, n int) Network {
	t.Helper()
	nw, err := NewChanNetwork(ChanConfig{Nodes: n})
	if err != nil {
		t.Fatalf("NewChanNetwork: %v", err)
	}
	t.Cleanup(func() { nw.Close() })
	return nw
}

func TestChanNetworkBasicDelivery(t *testing.T) {
	nw := newTestNet(t, 2)
	eps := nw.Endpoints()
	got := make(chan Msg, 1)
	eps[1].Register(7, func(m Msg) { got <- m })

	eps[0].Send(Msg{Dst: 1, Handler: 7, A: 42, B: 43, C: 44, D: 45, Payload: []byte("hello")})

	select {
	case m := <-got:
		if m.Src != 0 || m.A != 42 || m.B != 43 || m.C != 44 || m.D != 45 || string(m.Payload) != "hello" {
			t.Fatalf("bad message: %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("message not delivered")
	}
}

func TestChanNetworkSelfSend(t *testing.T) {
	nw := newTestNet(t, 1)
	ep := nw.Endpoints()[0]
	got := make(chan Msg, 1)
	ep.Register(1, func(m Msg) { got <- m })
	ep.Send(Msg{Dst: 0, Handler: 1, A: 5})
	select {
	case m := <-got:
		if m.Src != 0 || m.A != 5 {
			t.Fatalf("bad self message: %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("self message not delivered")
	}
}

func TestChanNetworkOrderingPerPair(t *testing.T) {
	nw := newTestNet(t, 2)
	eps := nw.Endpoints()
	const n = 1000
	var seen []uint64
	done := make(chan struct{})
	eps[1].Register(2, func(m Msg) {
		seen = append(seen, m.A)
		if len(seen) == n {
			close(done)
		}
	})
	for i := 0; i < n; i++ {
		eps[0].Send(Msg{Dst: 1, Handler: 2, A: uint64(i)})
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d of %d messages delivered", len(seen), n)
	}
	for i, v := range seen {
		if v != uint64(i) {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
}

func TestChanNetworkHandlerMaySend(t *testing.T) {
	// A classic request/reply ping-pong driven entirely by handlers.
	nw := newTestNet(t, 2)
	eps := nw.Endpoints()
	done := make(chan uint64, 1)
	eps[1].Register(3, func(m Msg) {
		eps[1].Send(Msg{Dst: 0, Handler: 4, A: m.A + 1})
	})
	eps[0].Register(4, func(m Msg) {
		if m.A < 100 {
			eps[0].Send(Msg{Dst: 1, Handler: 3, A: m.A})
		} else {
			done <- m.A
		}
	})
	eps[0].Send(Msg{Dst: 1, Handler: 3, A: 0})
	select {
	case v := <-done:
		if v < 100 {
			t.Fatalf("ping-pong ended early at %d", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ping-pong did not complete")
	}
}

// TestChanNetworkConcurrentSenders: several senders at once into one node
// with no TryHandler, so every message takes the queued path. Each
// sender's messages must arrive in order and exactly once; the per-sender
// slots are plain memory, so under -race two handlers running at once on
// the node are a reported race too.
func TestChanNetworkConcurrentSenders(t *testing.T) {
	nw := newTestNet(t, 4)
	eps := nw.Endpoints()
	const perSender = 500
	var last [4]uint64
	var total atomic.Uint64
	var misorders atomic.Int64
	done := make(chan struct{})
	eps[0].Register(5, func(m Msg) {
		if m.A != last[m.Src]+1 {
			misorders.Add(1)
		}
		last[m.Src] = m.A
		if total.Add(1) == 3*perSender {
			close(done)
		}
	})
	var wg sync.WaitGroup
	for src := 1; src < 4; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 1; i <= perSender; i++ {
				eps[src].Send(Msg{Dst: 0, Handler: 5, A: uint64(i)})
			}
		}(src)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("delivered %d, want %d", total.Load(), 3*perSender)
	}
	if n := misorders.Load(); n != 0 {
		t.Fatalf("%d messages arrived out of their sender's order", n)
	}
}

func TestStatsCounting(t *testing.T) {
	nw := newTestNet(t, 2)
	eps := nw.Endpoints()
	done := make(chan struct{}, 8)
	eps[1].Register(6, func(m Msg) { done <- struct{}{} })
	payload := make([]byte, 100)
	for i := 0; i < 3; i++ {
		eps[0].Send(Msg{Dst: 1, Handler: 6, Payload: payload})
	}
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("delivery timeout")
		}
	}
	s0 := eps[0].Stats().Snapshot()
	s1 := eps[1].Stats().Snapshot()
	if s0.MsgsSent != 3 {
		t.Errorf("sender MsgsSent = %d, want 3", s0.MsgsSent)
	}
	if s1.MsgsRecv != 3 {
		t.Errorf("receiver MsgsRecv = %d, want 3", s1.MsgsRecv)
	}
	wantBytes := uint64(3 * (headerBytes + 100))
	if s0.BytesSent != wantBytes {
		t.Errorf("BytesSent = %d, want %d", s0.BytesSent, wantBytes)
	}
	if s1.BytesRecv != wantBytes {
		t.Errorf("BytesRecv = %d, want %d", s1.BytesRecv, wantBytes)
	}
}

func TestSnapshotArithmetic(t *testing.T) {
	a := trace.NetSnapshot{MsgsSent: 6, BytesSent: 60, MsgsRecv: 3, BytesRecv: 30, Flushes: 2, Retransmits: 1}
	b := trace.NetSnapshot{MsgsSent: 4, BytesSent: 40, MsgsRecv: 2, BytesRecv: 20, Flushes: 3, DupFramesDropped: 1}
	want := trace.NetSnapshot{MsgsSent: 10, BytesSent: 100, MsgsRecv: 5, BytesRecv: 50, Flushes: 5, Retransmits: 1, DupFramesDropped: 1}
	if s := a.Add(b); s != want {
		t.Fatalf("Add = %+v, want %+v", s, want)
	}
}

func TestInvalidNodeCount(t *testing.T) {
	if _, err := NewChanNetwork(ChanConfig{Nodes: 0}); err == nil {
		t.Fatal("expected error for zero nodes")
	}
}

func TestCloseUnblocksPump(t *testing.T) {
	nw := newTestNet(t, 1)
	// Close is invoked via t.Cleanup; the test passes if Close returns
	// (the pump goroutine exits and wg.Wait completes).
	if err := nw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}
