package amnet_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/faultnet"
)

// The Handler and the TryHandler of one id are different functions, so a
// test can tell the two paths apart: only direct dispatch ever calls the
// TryHandler, and only a queued message reaches the Handler.

// TestDirectDispatchMixedKeepsOrderAndSerializesLanes sends from several
// concurrent senders to one node whose TryHandler declines part of the
// traffic, so direct and queued deliveries interleave. Each sender's
// messages must arrive in order, exactly once, and the node must never
// run two handlers at a time. The per-sender slots are plain memory:
// under -race a second goroutine inside the node is a reported race as
// well as an occupancy failure. The channel fabric runs it bare and
// wrapped in faultnet, whose wire schedulers dispatch directly too, with
// no faults and with the chaos matrix's lossy ones.
func TestDirectDispatchMixedKeepsOrderAndSerializesLanes(t *testing.T) {
	const nodes = 5
	for _, tc := range []struct {
		name   string
		policy *faultnet.Policy
	}{
		{"chan", nil},
		{"faultnet/zero", &faultnet.Policy{}},
		{"faultnet/lossy", &faultnet.Policy{Seed: 1, Delay: 50 * time.Microsecond, DropProb: 0.28}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nw, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: nodes})
			if err != nil {
				t.Fatalf("NewChanNetwork: %v", err)
			}
			if tc.policy != nil {
				nw = faultnet.Wrap(nw, *tc.policy)
			}
			mixedDispatch(t, nw, nodes)
		})
	}
}

// mixedDispatch is TestDirectDispatchMixedKeepsOrderAndSerializesLanes
// on one network of nodes endpoints, which it closes.
func mixedDispatch(t *testing.T, nw amnet.Network, nodes int) {
	const perSender = 4000
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	eps := nw.Endpoints()
	last := make([]uint64, nodes)
	var occupancy atomic.Int32
	var direct, queued, seen, overlaps, misorders atomic.Int64
	done := make(chan struct{})
	handle := func(m amnet.Msg, count *atomic.Int64) {
		if occupancy.Add(1) != 1 {
			overlaps.Add(1)
		}
		if m.A != last[m.Src]+1 {
			misorders.Add(1)
		}
		last[m.Src] = m.A
		occupancy.Add(-1)
		count.Add(1)
		if seen.Add(1) == int64(perSender*(nodes-1)) {
			close(done)
		}
	}
	eps[0].Register(9, func(m amnet.Msg) { handle(m, &queued) })
	eps[0].RegisterTry(9, func(m amnet.Msg) bool {
		if m.A%7 == 3 {
			return false // declined before any side effect: the pump's
		}
		handle(m, &direct)
		return true
	})
	nw.Start()
	deadline := time.After(10 * time.Second)
	stalled := func() {
		t.Fatalf("stalled at %d of %d", seen.Load(), perSender*(nodes-1))
	}
	// Sender 1's first messages go one at a time, each awaited, until
	// one finds node 0 idle and takes the direct path: a concurrent
	// burst alone can keep the mailbox non-empty from its first message
	// to its last. An awaited message leaves nothing queued, so only
	// the pump, still holding the token as it parks, can divert the
	// next one.
	warm := 0
	for direct.Load() == 0 && warm < perSender {
		warm++
		eps[1].Send(amnet.Msg{Dst: 0, Handler: 9, A: uint64(warm)})
		for seen.Load() < int64(warm) {
			select {
			case <-deadline:
				stalled()
			default:
				runtime.Gosched()
			}
		}
	}
	var wg sync.WaitGroup
	for src := 1; src < nodes; src++ {
		first := 1
		if src == 1 {
			first = warm + 1
		}
		wg.Add(1)
		go func(src, first int) {
			defer wg.Done()
			for i := first; i <= perSender; i++ {
				eps[src].Send(amnet.Msg{Dst: 0, Handler: 9, A: uint64(i)})
			}
		}(src, first)
	}
	wg.Wait()
	select {
	case <-done:
	case <-deadline:
		stalled()
	}
	nw.Close()
	if n := overlaps.Load(); n != 0 {
		t.Errorf("%d handler runs overlapped another on the same node", n)
	}
	if n := misorders.Load(); n != 0 {
		t.Errorf("%d messages arrived out of their sender's order", n)
	}
	for src := 1; src < nodes; src++ {
		if last[src] != perSender {
			t.Errorf("sender %d delivered up to %d of %d", src, last[src], perSender)
		}
	}
	if direct.Load() == 0 || queued.Load() == 0 {
		t.Errorf("want both paths exercised, got %d direct and %d queued", direct.Load(), queued.Load())
	}
	// Nobody polls here: every queued message is the pump's.
	s := eps[0].Stats().Snapshot()
	if s.RecvDirect != uint64(direct.Load()) || s.RecvPumped != uint64(queued.Load()) || s.RecvPolled != 0 {
		t.Errorf("receive paths %d direct, %d polled, %d pumped; handlers saw %d direct, %d queued",
			s.RecvDirect, s.RecvPolled, s.RecvPumped, direct.Load(), queued.Load())
	}
	if sum := s.RecvDirect + s.RecvPolled + s.RecvPumped; sum != s.MsgsRecv || sum != uint64(perSender*(nodes-1)) {
		t.Errorf("receive paths sum to %d, MsgsRecv is %d, %d were sent", sum, s.MsgsRecv, perSender*(nodes-1))
	}
}

// TestDeclinedTryHandlerGoesToThePumpOnceInOrder: a message its TryHandler
// declines is offered to it once, reaches the Handler once, and keeps its
// place among the sender's other messages.
func TestDeclinedTryHandlerGoesToThePumpOnceInOrder(t *testing.T) {
	const total = 300
	nw, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := nw.Endpoints()
	var mu sync.Mutex
	var order []uint64
	offered := make(map[uint64]int)
	viaPump := make(map[uint64]int)
	done := make(chan struct{})
	record := func(a uint64) {
		order = append(order, a)
		if len(order) == total {
			close(done)
		}
	}
	eps[1].Register(9, func(m amnet.Msg) {
		mu.Lock()
		viaPump[m.A]++
		record(m.A)
		mu.Unlock()
	})
	eps[1].RegisterTry(9, func(m amnet.Msg) bool {
		mu.Lock()
		defer mu.Unlock()
		offered[m.A]++
		if m.A%3 == 0 {
			return false
		}
		record(m.A)
		return true
	})
	for i := uint64(0); i < total; i++ {
		eps[0].Send(amnet.Msg{Dst: 1, Handler: 9, A: i})
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled")
	}
	mu.Lock()
	defer mu.Unlock()
	for i, a := range order {
		if a != uint64(i) {
			t.Fatalf("delivery %d was message %d: order broken", i, a)
		}
	}
	for a := uint64(0); a < total; a++ {
		if offered[a] > 1 {
			t.Errorf("message %d offered to the TryHandler %d times", a, offered[a])
		}
		if a%3 == 0 && viaPump[a] != 1 {
			t.Errorf("declining message %d reached the Handler %d times, want 1", a, viaPump[a])
		}
	}
}

// TestCloseWaitsOutDirectDispatchAndKeepsQueued: Close arriving while a
// sender is inside a directly dispatched handler returns only after that
// handler has, and the message queued behind it in the meantime is
// delivered, not dropped.
func TestCloseWaitsOutDirectDispatchAndKeepsQueued(t *testing.T) {
	nw, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	eps := nw.Endpoints()
	entered := make(chan struct{})
	release := make(chan struct{})
	var direct, queued atomic.Int64
	eps[0].Register(9, func(amnet.Msg) { queued.Add(1) })
	eps[0].RegisterTry(9, func(amnet.Msg) bool {
		close(entered)
		<-release // holds the node's token; test scaffolding only
		direct.Add(1)
		return true
	})
	sent := make(chan struct{})
	go func() {
		eps[1].Send(amnet.Msg{Dst: 0, Handler: 9})
		close(sent)
	}()
	<-entered
	eps[2].Send(amnet.Msg{Dst: 0, Handler: 9}) // token taken: queued
	closed := make(chan struct{})
	go func() {
		nw.Close()
		close(closed)
	}()
	close(release)
	for _, ch := range []chan struct{}{sent, closed} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("Close or the dispatching Send hung")
		}
	}
	if direct.Load() != 1 || queued.Load() != 1 {
		t.Fatalf("got %d direct and %d queued deliveries, want 1 and 1", direct.Load(), queued.Load())
	}
}

// TestPollSharesTheLaneWithThePump: a node polling its own endpoint while
// its pump runs still sees every queued message exactly once and in order,
// whichever of the two delivers it; and Poll skips a busy token instead
// of waiting for it.
func TestPollSharesTheLaneWithThePump(t *testing.T) {
	const total = 20000
	nw, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := nw.Endpoints()
	var next uint64 // plain: the token must order the two consumers
	var misorders atomic.Int64
	parked, hold := make(chan struct{}), make(chan struct{})
	eps[1].Register(9, func(m amnet.Msg) {
		if m.A != next {
			misorders.Add(1)
		}
		next++
	})
	eps[1].Register(10, func(amnet.Msg) { close(parked); <-hold })
	end := make(chan struct{})
	eps[1].Register(11, func(amnet.Msg) { close(end) })
	poller := eps[1]

	// A handler parked on the pump (nobody polls yet, so it is the pump's)
	// keeps the token: Poll must come back.
	eps[0].Send(amnet.Msg{Dst: 1, Handler: 10})
	<-parked
	polled := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			poller.Poll()
		}
		close(polled)
	}()
	select {
	case <-polled:
	case <-time.After(10 * time.Second):
		t.Fatal("Poll blocked on a token that was taken")
	}
	close(hold)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				poller.Poll()
			}
		}
	}()
	for i := uint64(0); i < total; i++ {
		eps[0].Send(amnet.Msg{Dst: 1, Handler: 9, A: i})
	}
	close(stop)
	wg.Wait()
	// Whatever is still queued is the pump's; one more message behind it
	// marks the end.
	eps[0].Send(amnet.Msg{Dst: 1, Handler: 11})
	select {
	case <-end:
	case <-time.After(10 * time.Second):
		t.Fatal("stalled")
	}
	if n := misorders.Load(); n != 0 || next != total {
		t.Fatalf("%d of %d delivered, %d out of order between Poll and the pump", next, total, n)
	}
	// No TryHandler is registered: every message was polled or pumped.
	if s := eps[1].Stats().Snapshot(); s.RecvDirect != 0 || s.RecvPolled+s.RecvPumped != total+2 || s.MsgsRecv != total+2 {
		t.Errorf("receive paths %d direct, %d polled, %d pumped, %d in all; want %d polled or pumped",
			s.RecvDirect, s.RecvPolled, s.RecvPumped, s.MsgsRecv, total+2)
	}
}
