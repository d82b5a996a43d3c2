package faultnet

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
)

// delayed wraps an n-node channel network in a policy that only delays.
func delayed(t *testing.T, n int, delay time.Duration) *Network {
	t.Helper()
	inner, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: n})
	if err != nil {
		t.Fatal(err)
	}
	return Wrap(inner, Policy{Delay: delay})
}

// TestCloseDrainsDelayHeapPromptly pins the close-then-drain contract:
// messages still waiting out their delay when Close is called are
// delivered before Close returns — without waiting out the residual
// delay — and nothing is delivered after.
func TestCloseDrainsDelayHeapPromptly(t *testing.T) {
	const delay = 2 * time.Second
	nw := delayed(t, 2, delay)
	var delivered atomic.Int64
	eps := nw.Endpoints()
	eps[1].Register(1, func(m amnet.Msg) { delivered.Add(1) })

	const total = 64
	for i := 0; i < total; i++ {
		eps[0].Send(amnet.Msg{Dst: 1, Handler: 1, A: uint64(i)})
	}
	start := time.Now()
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed >= delay {
		t.Fatalf("Close waited out the delay: took %v with %v delay", elapsed, delay)
	}
	if n := delivered.Load(); n != total {
		t.Fatalf("Close returned with %d of %d delayed messages delivered", n, total)
	}
	after := delivered.Load()
	time.Sleep(20 * time.Millisecond)
	if n := delivered.Load(); n != after {
		t.Fatalf("%d deliveries happened after Close returned", n-after)
	}
}

// TestCloseLeaksNoPumpGoroutines pins that Close tears down every
// scheduler goroutine (and the timer it armed) and every pump of the
// inner network: the goroutine count settles back to its level before.
func TestCloseLeaksNoPumpGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 4; round++ {
		nw := delayed(t, 4, time.Hour)
		eps := nw.Endpoints()
		eps[1].Register(1, func(m amnet.Msg) {})
		// Park a message far in the future so the scheduler is blocked on
		// its timer when Close arrives.
		eps[0].Send(amnet.Msg{Dst: 1, Handler: 1})
		time.Sleep(time.Millisecond)
		if err := nw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked across Close: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLatencyNoHeadOfLineBlocking sends two delayed messages ε apart and
// checks they arrive ε apart (each at its own due time), and that a
// self-send, which the wire never sees, overtakes them rather than
// queueing behind.
func TestLatencyNoHeadOfLineBlocking(t *testing.T) {
	const lat = 60 * time.Millisecond
	const eps = 15 * time.Millisecond
	nw := delayed(t, 2, lat)
	defer nw.Close()
	es := nw.Endpoints()
	type arrival struct {
		a  uint64
		at time.Time
	}
	arrivals := make(chan arrival, 4)
	es[1].Register(1, func(m amnet.Msg) { arrivals <- arrival{m.A, time.Now()} })
	selfGot := make(chan time.Time, 1)
	es[1].Register(2, func(m amnet.Msg) { selfGot <- time.Now() })

	start := time.Now()
	es[0].Send(amnet.Msg{Dst: 1, Handler: 1, A: 1})
	time.Sleep(eps)
	es[0].Send(amnet.Msg{Dst: 1, Handler: 1, A: 2})
	// While both remote messages are still in flight, a self-send on the
	// destination must be delivered immediately.
	es[1].Send(amnet.Msg{Dst: 1, Handler: 2})
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
