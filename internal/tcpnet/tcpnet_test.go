package tcpnet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/proto"
)

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

func TestBasicDelivery(t *testing.T) {
	nw, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := nw.Endpoints()
	got := make(chan amnet.Msg, 1)
	eps[1].Register(9, func(m amnet.Msg) { got <- m })
	eps[0].Send(amnet.Msg{Dst: 1, Handler: 9, A: 7, B: 8, C: 9, D: 10, Payload: []byte("over tcp")})
	select {
	case m := <-got:
		if m.Src != 0 || m.A != 7 || m.D != 10 || string(m.Payload) != "over tcp" {
			t.Fatalf("bad message: %+v", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestOrderingPerPair(t *testing.T) {
	nw, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := nw.Endpoints()
	const n = 500
	done := make(chan int, 1)
	seen := 0
	eps[1].Register(3, func(m amnet.Msg) {
		if int(m.A) != seen {
			t.Errorf("out of order: got %d want %d", m.A, seen)
		}
		seen++
		if seen == n {
			done <- seen
		}
	})
	for i := 0; i < n; i++ {
		eps[0].Send(amnet.Msg{Dst: 1, Handler: 3, A: uint64(i)})
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d delivered", seen)
	}
}

// TestAceClusterOverTCP runs the full runtime — coherence, barriers,
// protocol library — over real sockets.
func TestAceClusterOverTCP(t *testing.T) {
	nw, err := New(Loopback(3))
	if err != nil {
		t.Fatal(err)
	}
	cl, err := core.NewCluster(core.Options{Procs: 3, Registry: proto.NewRegistry(), Transport: amnet.Fixed(nw)})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	err = cl.Run(func(p *core.Proc) error {
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 16)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		for i := 0; i < 20; i++ {
			p.StartWrite(r)
			r.Data.SetInt64(0, r.Data.Int64(0)+1)
			p.EndWrite(r)
		}
		p.GlobalBarrier()
		p.StartRead(r)
		got := r.Data.Int64(0)
		p.EndRead(r)
		if got != 60 {
			return fmt.Errorf("got %d, want 60", got)
		}
		// The update protocol over TCP, too.
		sp, err := p.NewSpace("update")
		if err != nil {
			return err
		}
		var uid core.RegionID
		if p.ID() == 1 {
			uid = p.GMalloc(sp, 8)
		}
		uid = p.BroadcastID(1, uid)
		ur := p.Map(uid)
		p.StartRead(ur)
		p.EndRead(ur)
		p.Barrier(sp)
		if p.ID() == 1 {
			p.StartWrite(ur)
			ur.Data.SetInt64(0, 5)
			p.EndWrite(ur)
		}
		p.Barrier(sp)
		p.StartRead(ur)
		v := ur.Data.Int64(0)
		p.EndRead(ur)
		if v != 5 {
			return fmt.Errorf("update over tcp: got %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidCount(t *testing.T) {
	if _, err := New(Loopback(0)); err == nil {
		t.Fatal("expected error")
	}
}

// TestStatsMatchTraffic asserts the endpoint counters agree exactly with
// the frames a loopback exchange actually put on the wire.
func TestStatsMatchTraffic(t *testing.T) {
	nw, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := nw.Endpoints()

	const n = 50
	payloads := []int{0, 1, 7, 64, 1024}
	wantBytes := uint64(0)
	done := make(chan struct{})
	seen := 0
	eps[1].Register(5, func(m amnet.Msg) {
		seen++
		if seen == n {
			close(done)
		}
	})
	for i := 0; i < n; i++ {
		pl := payloads[i%len(payloads)]
		eps[0].Send(amnet.Msg{Dst: 1, Handler: 5, A: uint64(i), Payload: make([]byte, pl)})
		wantBytes += uint64(frameHeader + pl)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("only %d of %d delivered", seen, n)
	}

	sent := eps[0].Stats().Snapshot()
	recv := eps[1].Stats().Snapshot()
	if sent.MsgsSent != n {
		t.Errorf("MsgsSent = %d, want %d", sent.MsgsSent, n)
	}
	if sent.BytesSent != wantBytes {
		t.Errorf("BytesSent = %d, want %d", sent.BytesSent, wantBytes)
	}
	if recv.MsgsRecv != n {
		t.Errorf("MsgsRecv = %d, want %d", recv.MsgsRecv, n)
	}
	if recv.BytesRecv != wantBytes {
		t.Errorf("BytesRecv = %d, want %d", recv.BytesRecv, wantBytes)
	}
	// Coalescing must not distort the per-message counters; the flush
	// count only tells how the same messages were batched onto the wire.
	if sent.Flushes == 0 {
		t.Error("sender recorded no flushes")
	}
	if sent.Flushes > sent.MsgsSent {
		t.Errorf("Flushes = %d exceeds MsgsSent = %d", sent.Flushes, sent.MsgsSent)
	}
}

// TestStatsExactUnderConcurrentBurst asserts counter exactness while
// many senders coalesce frames concurrently: the per-message counters
// must equal the traffic regardless of how the writer batched it.
func TestStatsExactUnderConcurrentBurst(t *testing.T) {
	const nodes = 4
	const perSender = 2000
	const payload = 24
	nw, err := New(Loopback(nodes))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := nw.Endpoints()
	total := (nodes - 1) * perSender
	done := make(chan struct{})
	seen := 0
	eps[0].Register(6, func(m amnet.Msg) {
		seen++
		if seen == total {
			close(done)
		}
	})
	var wg sync.WaitGroup
	for src := 1; src < nodes; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			data := make([]byte, payload)
			for i := 0; i < perSender; i++ {
				eps[src].Send(amnet.Msg{Dst: 0, Handler: 6, Payload: data})
			}
		}(src)
	}
	wg.Wait()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("only %d of %d delivered", seen, total)
	}
	recv := eps[0].Stats().Snapshot()
	if recv.MsgsRecv != uint64(total) {
		t.Errorf("MsgsRecv = %d, want %d", recv.MsgsRecv, total)
	}
	if want := uint64(total * (frameHeader + payload)); recv.BytesRecv != want {
		t.Errorf("BytesRecv = %d, want %d", recv.BytesRecv, want)
	}
	var sentMsgs, flushes uint64
	for _, ep := range eps[1:] {
		s := ep.Stats().Snapshot()
		sentMsgs += s.MsgsSent
		flushes += s.Flushes
	}
	if sentMsgs != uint64(total) {
		t.Errorf("sum MsgsSent = %d, want %d", sentMsgs, total)
	}
	if flushes == 0 || flushes > sentMsgs {
		t.Errorf("sum Flushes = %d, want in [1, %d]", flushes, sentMsgs)
	}
	t.Logf("coalescing factor: %d msgs / %d flushes = %.1f msgs/flush",
		sentMsgs, flushes, float64(sentMsgs)/float64(flushes))
}

// TestFlushesCountEveryWrite checks Flushes counts every write into the
// socket, including those bufio makes mid-Write once a batch overflows
// its 64 KiB buffer: a burst of 1 KiB-payload messages well past that
// buffer needs at least one write per 64 KiB on the wire, and never
// more writes than messages.
func TestFlushesCountEveryWrite(t *testing.T) {
	nw, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := nw.Endpoints()
	const n = 2048 // > 2 MiB of 1 KiB payloads
	done := make(chan struct{})
	seen := 0
	eps[1].Register(5, func(m amnet.Msg) {
		amnet.Recycle(m.Payload)
		if seen++; seen == n {
			close(done)
		}
	})
	payload := make([]byte, 1<<10)
	for i := 0; i < n; i++ {
		eps[0].Send(amnet.Msg{Dst: 1, Handler: 5, Payload: payload})
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("only %d of %d delivered", seen, n)
	}
	s := eps[0].Stats().Snapshot()
	if minWrites := (s.BytesSent + 64<<10 - 1) / (64 << 10); s.Flushes < minWrites || s.Flushes > s.MsgsSent {
		t.Fatalf("Flushes = %d for %d bytes in %d messages, want in [%d, %d]",
			s.Flushes, s.BytesSent, s.MsgsSent, minWrites, s.MsgsSent)
	}
}

// TestAcksRideDataFrames runs a strict ping-pong, where every frame has
// a reply going the other way: each ack rides that reply's header, so
// the wire carries one socket write per message, and a standalone ack
// goes out at most once per ackEvery frames (plus the odd probe tick).
func TestAcksRideDataFrames(t *testing.T) {
	nw, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := nw.Endpoints()
	pong := make(chan uint64, 1)
	eps[1].Register(1, func(m amnet.Msg) { eps[1].Send(amnet.Msg{Dst: 0, Handler: 2, A: m.A}) })
	eps[0].Register(2, func(m amnet.Msg) { pong <- m.A })
	const rounds = 500
	for i := uint64(0); i < rounds; i++ {
		eps[0].Send(amnet.Msg{Dst: 1, Handler: 1, A: i})
		select {
		case a := <-pong:
			if a != i {
				t.Fatalf("round %d: pong %d", i, a)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("round %d: no pong", i)
		}
	}
	var msgs, flushes uint64
	for _, ep := range eps {
		s := ep.Stats().Snapshot()
		msgs += s.MsgsSent
		flushes += s.Flushes
	}
	if msgs != 2*rounds {
		t.Fatalf("MsgsSent = %d, want %d", msgs, 2*rounds)
	}
	if limit := msgs + msgs/ackEvery + 4; flushes > limit {
		t.Fatalf("%d socket writes for %d messages, want at most %d: acks are not riding the replies", flushes, msgs, limit)
	}
}

// TestRoundTripDoesNotAllocate pins the steady-state cost of one message
// round trip over loopback sockets at 0 allocations: the encode into a
// pooled frame, the journal append and its release by the piggybacked
// ack, the frame header decoded in place in the reader's buffer, and the
// pooled payload on both sides.
func TestRoundTripDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the buffer pool allocates under the race detector")
	}
	nw, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	eps := nw.Endpoints()
	done := make(chan struct{}, 1)
	eps[1].Register(9, func(m amnet.Msg) {
		eps[1].Send(amnet.Msg{Dst: 0, Handler: 10, A: m.A, Payload: m.Payload})
		amnet.Recycle(m.Payload)
	})
	eps[0].Register(10, func(m amnet.Msg) {
		amnet.Recycle(m.Payload)
		done <- struct{}{}
	})
	payload := make([]byte, 64)
	var i uint64
	roundTrip := func() {
		i++
		eps[0].Send(amnet.Msg{Dst: 1, Handler: 9, A: i, Payload: payload})
		<-done
	}
	for j := 0; j < 100; j++ {
		roundTrip() // warm the pool, the journals and the reader buffers
	}
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("a round trip allocates %.1f times, want 0", allocs)
	}
}

// TestHeaderOnlyFrameTakesSmallestPoolClass: a frame with no payload —
// every standalone ack, and every request that carries only its scalar
// arguments — fits amnet's 64-byte buffer class, not the next one up.
func TestHeaderOnlyFrameTakesSmallestPoolClass(t *testing.T) {
	b := amnet.Alloc(frameHeader)
	defer amnet.Recycle(b)
	if cap(b) != 64 {
		t.Fatalf("a %d-byte header-only frame takes a %d-byte buffer, want 64", frameHeader, cap(b))
	}
}
