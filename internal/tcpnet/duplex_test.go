package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
)

// linkUp reports whether s has a connection it is not replacing.
func linkUp(s *sender) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.conn != nil && !s.broken && !s.busy
}

// awaitMesh waits until every link of nw is up and its writer idle.
func awaitMesh(t *testing.T, nw *network) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, ep := range nw.eps {
		for _, s := range ep.out {
			for s != nil && !linkUp(s) {
				if time.Now().After(deadline) {
					t.Fatalf("link %d→%d never came up", ep.ID(), s.peer)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
}

// TestOneConnectionPerPair: a four-node mesh holds one connection per
// pair of distinct nodes — six, each accepted by the higher id and
// shared by both sides' links — and no link from a node to itself.
func TestOneConnectionPerPair(t *testing.T) {
	nwi, err := New(Loopback(4))
	if err != nil {
		t.Fatal(err)
	}
	defer nwi.Close()
	nw := nwi.(*network)
	awaitMesh(t, nw)
	inbound := 0
	for _, ep := range nw.eps {
		id := int(ep.ID())
		if ep.out[id] != nil {
			t.Errorf("node %d has a link to itself", id)
		}
		for j := range id {
			inbound++
			acc, dial := ep.out[j].conn, nw.byID[j].out[id].conn
			if acc.RemoteAddr().String() != dial.LocalAddr().String() || acc.LocalAddr().String() != dial.RemoteAddr().String() {
				t.Errorf("pair %d-%d: two sockets, %v↔%v and %v↔%v", j, id,
					dial.LocalAddr(), dial.RemoteAddr(), acc.LocalAddr(), acc.RemoteAddr())
			}
		}
	}
	if inbound != 6 {
		t.Fatalf("%d inbound connections, want 6", inbound)
	}
}

// TestKillLinkFromAcceptorSide severs a busy link from the higher id,
// which cannot redial: the acceptor must wait for the lower id's redial
// and take it over. Both directions stream throughout, and both must
// stay FIFO and exactly-once across the reconnect, which is counted on
// both sides.
func TestKillLinkFromAcceptorSide(t *testing.T) {
	nwi, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nwi.Close()
	nw := nwi.(*network)
	eps := nw.Endpoints()

	const total = 20000
	var next, bad [2]atomic.Uint64
	done := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
	for dst := range eps {
		eps[dst].Register(7, func(m amnet.Msg) {
			if m.A != next[dst].Load() {
				bad[dst].Add(1)
			}
			next[dst].Store(m.A + 1)
			if m.A == total-1 {
				close(done[dst])
			}
		})
	}
	for src := range eps {
		go func() {
			for i := 0; i < total; i++ {
				eps[src].Send(amnet.Msg{Dst: amnet.NodeID(1 - src), Handler: 7, A: uint64(i)})
				if src == 1 && i == total/2 {
					nw.KillLink(1, 0)
				}
			}
		}()
	}
	for dst := range eps {
		select {
		case <-done[dst]:
		case <-time.After(30 * time.Second):
			t.Fatalf("stream to %d stalled: delivered %d of %d", dst, next[dst].Load(), total)
		}
		if n := bad[dst].Load(); n != 0 {
			t.Fatalf("%d frames to node %d broke FIFO/exactly-once across the reconnect", n, dst)
		}
	}
	for id, ep := range eps {
		if ep.Stats().Snapshot().Reconnects == 0 {
			t.Errorf("node %d counted no reconnect", id)
		}
	}
}

// TestHelloFromNoDialerClosed: only a lower id dials, so a hello naming
// the acceptor itself or a higher id comes from no honest peer. The
// accept loop closes such a connection, and the live links keep their
// connections and their traffic.
func TestHelloFromNoDialerClosed(t *testing.T) {
	nwi, err := New(Loopback(3))
	if err != nil {
		t.Fatal(err)
	}
	defer nwi.Close()
	nw := nwi.(*network)
	eps := nw.Endpoints()
	got := make(chan amnet.NodeID, 8)
	for _, ep := range eps {
		ep.Register(7, func(m amnet.Msg) { got <- m.Src })
	}
	exchange := func() {
		t.Helper()
		for _, p := range [][2]int{{0, 1}, {1, 0}, {2, 1}, {1, 2}} {
			eps[p[0]].Send(amnet.Msg{Dst: amnet.NodeID(p[1]), Handler: 7})
			select {
			case src := <-got:
				if int(src) != p[0] {
					t.Fatalf("frame from %d, want %d", src, p[0])
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("frame %d→%d not delivered", p[0], p[1])
			}
		}
	}
	exchange()
	awaitMesh(t, nw)
	before := [2]net.Conn{nw.byID[1].out[0].conn, nw.byID[1].out[2].conn}

	for _, id := range []uint32{1, 2} {
		conn, err := net.Dial("tcp", nw.addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		var hello [4]byte
		binary.LittleEndian.PutUint32(hello[:], id)
		if _, err := conn.Write(hello[:]); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("hello naming node %d: connection not closed (%v)", id, err)
		}
		conn.Close()
	}

	exchange()
	if after := [2]net.Conn{nw.byID[1].out[0].conn, nw.byID[1].out[2].conn}; after != before {
		t.Fatal("a hostile hello replaced a live connection")
	}
	for id, ep := range eps {
		if n := ep.Stats().Snapshot().Reconnects; n != 0 {
			t.Errorf("node %d counted %d reconnects", id, n)
		}
	}
}

// TestInlineTailWrittenFirst: on an answered, idle link Send writes
// inline, and a frame larger than both socket buffers leaves a tail
// while the peer is not reading. Frames sent after it must queue behind
// that tail: once the peer reads, every frame arrives whole, once and
// in order. The inline write counts as one socket write, made before
// Send returns, and the writer's write of the tail as another.
func TestInlineTailWrittenFirst(t *testing.T) {
	nw, conn := halfMesh(t, 0) // the test plays node 1
	defer nw.Close()
	conn.(*net.TCPConn).SetReadBuffer(1 << 20)
	ep := nw.eps[0]
	ep.Register(7, func(amnet.Msg) {})
	s := ep.out[1]

	// Answer the link: a data frame from node 1 arms the inline write.
	buf := make([]byte, frameHeader)
	putHeader(buf, &amnet.Msg{Dst: 0, Src: 1, Handler: 7}, 1)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		ready := s.heard && !s.busy && len(s.queue) == 0
		s.mu.Unlock()
		if ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("link never became answered and idle")
		}
	}

	const big = 8 << 20
	payload := func(a uint64, n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(a + uint64(i)/7)
		}
		return p
	}
	flushes := ep.Stats().Flushes.Load()
	ep.Send(amnet.Msg{Dst: 1, Handler: 9, A: 0, Payload: payload(0, big)})
	if n := ep.Stats().Flushes.Load() - flushes; n < 1 {
		t.Fatal("the inline write was not counted before Send returned")
	}
	s.mu.Lock()
	inlined, tail := !s.heard, s.tail != nil || s.busy
	s.mu.Unlock()
	if !inlined {
		t.Fatal("the frame was not written inline")
	}
	if !tail {
		t.Fatalf("a %d-byte frame left no tail", big)
	}
	const small = 16
	for a := uint64(1); a <= small; a++ {
		ep.Send(amnet.Msg{Dst: 1, Handler: 9, A: a, Payload: payload(a, 100)})
	}
	time.Sleep(20 * time.Millisecond)

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	for a := uint64(0); a <= small; {
		f, err := readFrame(br)
		if err != nil {
			t.Fatalf("reading frame %d: %v", a, err)
		}
		if f.seq == 0 {
			continue // a standalone ack
		}
		want := payload(a, 100)
		if a == 0 {
			want = payload(0, big)
		}
		if f.msg.A != a || f.seq != a+1 || string(f.msg.Payload) != string(want) {
			t.Fatalf("frame %d: got A %d, seq %d, %d payload bytes", a, f.msg.A, f.seq, len(f.msg.Payload))
		}
		a++
	}
	if n := ep.Stats().Flushes.Load() - flushes; n < 2 {
		t.Fatalf("%d socket writes counted for an inline write and its tail, want at least 2", n)
	}
}

// TestSelfSendSkipsTheWire: a message to the sending node itself goes
// to its own amnet.Node, with no socket write, in a copy of the payload
// (the transport keeps promising CopiesPayloadOnSend).
func TestSelfSendSkipsTheWire(t *testing.T) {
	nwi, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nwi.Close()
	awaitMesh(t, nwi.(*network)) // the link's opening ack is written
	ep := nwi.Endpoints()[0]
	flushes := ep.Stats().Flushes.Load()
	got := make(chan []byte, 1)
	ep.Register(13, func(m amnet.Msg) { got <- m.Payload })
	buf := []byte("before")
	ep.Send(amnet.Msg{Dst: 0, Handler: 13, Payload: buf})
	copy(buf, "XXXXXX")
	select {
	case p := <-got:
		if string(p) != "before" {
			t.Fatalf("payload = %q, want %q", p, "before")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("self-message not delivered")
	}
	st := ep.Stats().Snapshot()
	if st.MsgsSent != 1 || st.MsgsRecv != 1 || st.Flushes != flushes {
		t.Fatalf("sent %d, received %d, socket writes %d: want 1, 1, 0", st.MsgsSent, st.MsgsRecv, st.Flushes-flushes)
	}
}

// TestRedialDuringResumeNotStranded plays one interleaving by hand: the
// acceptor's writer takes a redial, and a newer one arrives before the
// writer has made the first its connection. The first must not become
// the link's connection as if nothing were waiting: the link stays
// broken, so the writer goes back for the newer redial. Stranded, that
// redial would sit unread until the next failure, and a hostile frame
// on it would go unnoticed.
func TestRedialDuringResumeNotStranded(t *testing.T) {
	ep := &endpoint{Node: amnet.NewNode(1, frameHeader), nw: &network{}, links: make([]recvLink, 2), downSent: make(map[amnet.NodeID]bool)}
	s := newSender(ep, 0, "", nil) // node 1's link to node 0: the acceptor
	first, p1 := net.Pipe()
	second, p2 := net.Pipe()
	defer p1.Close()
	defer p2.Close()
	go io.Copy(io.Discard, p1) // take the resume's ack
	s.adopt(first)
	s.mu.Lock()
	taken := s.next // the writer takes the first redial...
	s.next = nil
	s.mu.Unlock()
	s.adopt(second) // ...and the second arrives before it resumes
	if _, err := s.resume(taken); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	broken, next := s.broken, s.next
	s.mu.Unlock()
	if !broken || next != second {
		t.Fatalf("after the resume: broken %v, next is the newer redial %v; want true, true", broken, next == second)
	}
	first.Close()
	second.Close()
	ep.readers.Wait()
}

// TestOneSidedPeerDownReachesDialer: the acceptor alone declares the
// dialer down, as a failure detector on its side may, and from then on
// closes every redial. The dialer's redials connect, but none is
// answered, so each must count as a failed attempt, not a reconnect:
// the dialer declares the acceptor down within its budget and releases
// a producer blocked on its full journal, instead of redialing for ever.
func TestOneSidedPeerDownReachesDialer(t *testing.T) {
	nwi, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nwi.Close()
	nw := nwi.(*network)
	downs := make(chan amnet.NodeID, 1)
	nw.eps[0].SetPeerDownHandler(func(peer amnet.NodeID) { downs <- peer })
	nw.eps[1].Register(7, func(amnet.Msg) {})
	awaitMesh(t, nw)

	nw.eps[1].out[0].peerLost()
	sendDone := make(chan struct{})
	go func() {
		for i := 0; i <= maxPending; i++ {
			nw.eps[0].Send(amnet.Msg{Dst: 1, Handler: 7, A: uint64(i)})
		}
		close(sendDone)
	}()
	select {
	case peer := <-downs:
		if peer != 1 {
			t.Fatalf("peer down for %d, want 1", peer)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("the dialer never declared the acceptor down (%d backoffs, %d reconnects)",
			nw.eps[0].Stats().Backoffs.Load(), nw.eps[0].Stats().Reconnects.Load())
	}
	select {
	case <-sendDone:
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue still blocked after the peer was declared down")
	}
	if n := nw.eps[0].Stats().Snapshot().Reconnects; n != 0 {
		t.Fatalf("the dialer counted %d reconnects on redials the acceptor closed", n)
	}
}

// TestSilentDialerDeclaredDown: a lower id that never dials its first
// connection (it died between advertising its address and connecting)
// is declared down by the acceptor once the redial budget has passed
// since Connect, and a send to it is then dropped, not blocked.
func TestSilentDialerDeclaredDown(t *testing.T) {
	nd, err := Listen(Config{Nodes: 2, Local: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	nd.nw.redialWait = 200 * time.Millisecond
	downs := make(chan amnet.NodeID, 1)
	nd.nw.eps[0].SetPeerDownHandler(func(peer amnet.NodeID) { downs <- peer })
	nwi, err := nd.Connect([]string{"127.0.0.1:1", nd.Addrs()[0]}) // node 1 dials nobody
	if err != nil {
		t.Fatal(err)
	}
	defer nwi.Close()
	select {
	case peer := <-downs:
		if peer != 0 {
			t.Fatalf("peer down for %d, want 0", peer)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a dialer that never connected was not declared down")
	}
	dropped := make(chan struct{})
	go func() {
		for i := 0; i <= maxPending; i++ {
			nwi.Endpoints()[0].Send(amnet.Msg{Dst: 0, Handler: 7})
		}
		close(dropped)
	}()
	select {
	case <-dropped:
	case <-time.After(5 * time.Second):
		t.Fatal("Send to a declared-down peer blocked")
	}
}
