package tcpnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/proto"
)

// TestKillLinkReconnectsWithoutLossOrDup severs a busy link mid-stream
// and checks the supervision machinery restores the fabric contract:
// every frame delivered exactly once, in order, with reconnect,
// backoff and retransmit events visible in the counters. The kill lands
// while frames wait in the sender's queue (killQueued): a kill between
// bursts, once everything written is acked, has nothing to retransmit.
func TestKillLinkReconnectsWithoutLossOrDup(t *testing.T) {
	nwi, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nwi.Close()
	nw := nwi.(*network)
	eps := nw.Endpoints()

	const total = 20000
	var next, bad atomic.Uint64
	done := make(chan struct{})
	eps[1].Register(7, func(m amnet.Msg) {
		if m.A != next.Load() {
			bad.Add(1)
		}
		next.Store(m.A + 1)
		if m.A == total-1 {
			close(done)
		}
	})
	go func() {
		killed := false
		for i := 0; i < total; i++ {
			eps[0].Send(amnet.Msg{Dst: 1, Handler: 7, A: uint64(i)})
			if i >= total/2 && !killed {
				killed = killQueued(nw.eps[0].out[1])
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("stream stalled: delivered %d of %d", next.Load(), total)
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d frames broke FIFO/exactly-once across the reconnect", n)
	}
	sent := eps[0].Stats().Snapshot()
	if sent.Reconnects == 0 {
		t.Error("no reconnect counted")
	}
	if sent.Backoffs == 0 {
		t.Error("no backoff counted")
	}
	if sent.Retransmits == 0 {
		t.Error("no retransmit counted")
	}
}

// killQueued closes s's connection, as KillLink does, but only while
// frames wait in its queue, and under its lock so that the writer cannot
// take them first: it meets them on the dead connection, and the replay
// retransmits them whichever side notices the failure first.
func killQueued(s *sender) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return false
	}
	s.conn.Close()
	return true
}

// TestReplayedFramesDeduped plays a journal replay by hand: the test,
// playing node 0, sends frames 1,2,3, then — as a reconnecting sender
// whose acks were lost would — replays 2,3 before continuing with 4.
// The receiver must deliver each sequence exactly once and count the
// dropped duplicates.
func TestReplayedFramesDeduped(t *testing.T) {
	nw, conn := halfMesh(t, 1)
	defer nw.Close()
	eps := nw.Endpoints()
	var got []uint64
	var mu sync.Mutex
	eps[0].Register(7, func(m amnet.Msg) {
		mu.Lock()
		got = append(got, m.A)
		mu.Unlock()
	})
	nw.Start() // registration done; open the dispatch gate

	rawFrame := func(a, seq uint64) []byte {
		buf := make([]byte, frameHeader)
		putHeader(buf, &amnet.Msg{Dst: 1, Src: 0, Handler: 7, A: a}, seq)
		return buf
	}
	for _, sa := range [][2]uint64{{1, 1}, {2, 2}, {3, 3}, {2, 2}, {3, 3}, {4, 4}} {
		if _, err := conn.Write(rawFrame(sa[0], sa[1])); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n >= 4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := []uint64{1, 2, 3, 4}; len(got) != len(want) {
		t.Fatalf("delivered %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("delivered %v, want %v", got, want)
			}
		}
	}
	if d := eps[0].Stats().Snapshot().DupFramesDropped; d != 2 {
		t.Errorf("DupFramesDropped = %d, want 2", d)
	}
}

// TestKillLinkUnderCluster reruns a coherence workload over a link that
// dies mid-run: the runtime on top must not notice (no lost or
// duplicated coherence messages).
func TestKillLinkUnderCluster(t *testing.T) {
	nwi, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nwi.Close()
	nw := nwi.(*network)
	cl, err := core.NewCluster(core.Options{Procs: 2, Registry: proto.NewRegistry(), Transport: amnet.Fixed(nwi)})
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 200
	err = cl.Run(func(p *core.Proc) error {
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		for i := 0; i < rounds; i++ {
			if i == rounds/2 && p.ID() == 1 {
				nw.KillLink(1, 0)
				nw.KillLink(0, 1)
			}
			if p.ID() == i%2 {
				p.StartWrite(r)
				r.Data.SetInt64(0, r.Data.Int64(0)+1)
				p.EndWrite(r)
			}
			p.GlobalBarrier()
		}
		p.StartRead(r)
		got := r.Data.Int64(0)
		p.EndRead(r)
		if got != rounds {
			return errRounds
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The supervision events must surface through the cluster-level
	// metrics aggregation (what ace.Metrics exposes), not only on the
	// raw endpoints.
	net := cl.Metrics().Net
	if net.Reconnects == 0 {
		t.Error("no reconnect counted despite KillLink")
	}
	if net.Backoffs == 0 {
		t.Error("no backoff counted despite KillLink")
	}
}

var errRounds = errors.New("counter diverged across reconnect")

// TestUnreachablePeerDeclaredDown points a sender at a peer that will
// never come back (listener closed, connection severed) and expects the
// reconnect budget to expire into a peer-down notification instead of
// an unbounded retry loop.
func TestUnreachablePeerDeclaredDown(t *testing.T) {
	nwi, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nwi.Close()
	nw := nwi.(*network)
	eps := nw.Endpoints()
	downs := make(chan amnet.NodeID, 1)
	eps[0].(amnet.PeerAware).SetPeerDownHandler(func(peer amnet.NodeID) { downs <- peer })
	eps[1].Register(7, func(m amnet.Msg) {})

	// Make node 1 unreachable: stop its listener, then sever the link so
	// the sender notices on the next write.
	nw.listeners[1].Close()
	nw.KillLink(0, 1)
	eps[0].Send(amnet.Msg{Dst: 1, Handler: 7})

	select {
	case peer := <-downs:
		if peer != 1 {
			t.Fatalf("peer down for %d, want 1", peer)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("peer never declared down")
	}
	// Sends to a downed peer are dropped, not blocked or crashed.
	eps[0].Send(amnet.Msg{Dst: 1, Handler: 7})
}

// halfMesh builds node, one real node of a two-node cluster; the test
// plays the other through conn, a raw connection on which it reads and
// writes frames itself. With node = 0 the real node dials the test's
// listener and conn is the accepted end, its hello already read, and the
// listener is closed again, so a redial is refused; with node = 1 the
// test has dialed the node and introduced itself as node 0. conn closes
// at the end of the test.
func halfMesh(t *testing.T, node int) (*network, net.Conn) {
	t.Helper()
	nd, err := Listen(Config{Nodes: 2, Local: []int{node}})
	if err != nil {
		t.Fatal(err)
	}
	var hello [4]byte
	var conn net.Conn
	var nwi amnet.Network
	if node == 0 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		if nwi, err = nd.Connect([]string{nd.Addrs()[0], ln.Addr().String()}); err != nil {
			t.Fatal(err)
		}
		if conn, err = ln.Accept(); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, hello[:]); err != nil || hello != [4]byte{} {
			t.Fatalf("hello %v, %v: want node 0's", hello, err)
		}
	} else {
		if nwi, err = nd.Connect([]string{"unused", nd.Addrs()[0]}); err != nil {
			t.Fatal(err)
		}
		if conn, err = net.Dial("tcp", nd.Addrs()[0]); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(hello[:]); err != nil { // introduce as node 0
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { conn.Close() })
	return nwi.(*network), conn
}

// blockProducer drives node 0's sender to node 1 into the stalled
// state. nw and conn come from halfMesh(t, 0), and the test, playing
// node 1, reads every frame node 0 sends on conn and acks none: the
// journal fills to maxPending with frames that are delivered but never
// acknowledged, and the writer goes idle. A further Send must then
// block on backpressure; it runs on its own goroutine, and the returned
// channel closes when it returns.
func blockProducer(t *testing.T, nw *network, conn net.Conn) <-chan struct{} {
	t.Helper()
	eps := nw.Endpoints()
	var delivered atomic.Uint64
	go func() {
		br := bufio.NewReader(conn)
		for {
			f, err := readFrame(br)
			if err != nil {
				return
			}
			amnet.Recycle(f.msg.Payload)
			if f.seq != 0 {
				delivered.Add(1)
			}
		}
	}()

	for i := 0; i < maxPending; i++ {
		eps[0].Send(amnet.Msg{Dst: 1, Handler: 7, A: uint64(i)})
	}
	s := nw.eps[0].out[1]
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		idle := len(s.journal) == maxPending && len(s.queue) == 0
		s.mu.Unlock()
		if idle && delivered.Load() == maxPending {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reached the stalled state: delivered %d", delivered.Load())
		}
		time.Sleep(time.Millisecond)
	}

	sendDone := make(chan struct{})
	go func() {
		eps[0].Send(amnet.Msg{Dst: 1, Handler: 7, A: maxPending})
		close(sendDone)
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-sendDone:
		t.Fatal("send did not block with the journal at maxPending")
	default:
	}
	return sendDone
}

// TestBlockedEnqueueUnblocksOnPeerDown reproduces the enqueue hang: a
// sender whose journal sits at maxPending fully written but unacked has
// an idle writer (queue empty, parked on notEmpty), so nothing ever
// touches the connection again after the peer dies — the reconnect
// budget is never consumed, peerLost is never reached, and a producer
// blocked in enqueue on notFull hangs forever instead of the peer being
// declared down and the send failing out. The ack-stall probe must
// drive the writer onto the dead connection so the existing
// reconnect→peerLost path runs and its notFull broadcast frees the
// producer. The death here is one node 0's reader cannot notice: its
// end of the connection takes no more writes, while its reads block,
// because the test, playing node 1, neither writes nor closes its end.
func TestBlockedEnqueueUnblocksOnPeerDown(t *testing.T) {
	nw, conn := halfMesh(t, 0)
	defer nw.Close()
	downs := make(chan amnet.NodeID, 1)
	nw.eps[0].SetPeerDownHandler(func(peer amnet.NodeID) { downs <- peer })
	sendDone := blockProducer(t, nw, conn)

	// Now the peer dies for good: halfMesh's listener refuses redials.
	// The blocked producer must be released by the peer-down path, not
	// left hanging.
	s := nw.eps[0].out[1]
	s.mu.Lock()
	dead := s.conn.(*net.TCPConn)
	s.mu.Unlock()
	if err := dead.CloseWrite(); err != nil {
		t.Fatal(err)
	}

	select {
	case peer := <-downs:
		if peer != 1 {
			t.Fatalf("peer down for %d, want 1", peer)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("peer never declared down while a sender was blocked in enqueue")
	}
	select {
	case <-sendDone:
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue still blocked after the peer was declared down")
	}
}

// TestDeclarePeerDownReleasesBlockedSender drives the failure
// detector's path: DeclarePeerDown on a peer whose link is stalled at
// maxPending must release the blocked producer and fire the peer-down
// handler exactly once; repeating the call and naming an out-of-range
// id are no-ops, and a later Send to the peer is dropped at once.
func TestDeclarePeerDownReleasesBlockedSender(t *testing.T) {
	nw, conn := halfMesh(t, 0)
	defer nw.Close()
	var downs atomic.Int32
	nw.eps[0].SetPeerDownHandler(func(peer amnet.NodeID) {
		if peer != 1 {
			t.Errorf("peer down for %d, want 1", peer)
		}
		downs.Add(1)
	})
	sendDone := blockProducer(t, nw, conn)

	nw.DeclarePeerDown(1)
	select {
	case <-sendDone:
	case <-time.After(5 * time.Second):
		t.Fatal("enqueue still blocked after DeclarePeerDown")
	}
	nw.DeclarePeerDown(1)
	nw.DeclarePeerDown(-1)
	nw.DeclarePeerDown(2)
	if n := downs.Load(); n != 1 {
		t.Fatalf("peer-down handler fired %d times, want 1", n)
	}

	dropped := make(chan struct{})
	go func() {
		nw.eps[0].Send(amnet.Msg{Dst: 1, Handler: 7})
		close(dropped)
	}()
	select {
	case <-dropped:
	case <-time.After(5 * time.Second):
		t.Fatal("Send to a declared-down peer blocked")
	}
}

// TestReaderDispatchNeverWaitsOnJournal pins the rule that keeps reader
// dispatch deadlock-free: a goroutine holding the node's token never
// waits on the journal bound. Node 0's link to node 1 is held at
// maxPending with node 1's acks silenced (blockProducer). Node 1 then
// sends node 0 two frames, dispatched on node 0's reader, and the first
// one's handler replies into the full link. The reply must go out past
// the bound — a reader waiting there could be the very one that has to
// read the ack — and the reader must go on to deliver the next frame.
func TestReaderDispatchNeverWaitsOnJournal(t *testing.T) {
	nw, conn := halfMesh(t, 0)
	defer nw.Close()
	ep := nw.eps[0]
	delivered := make(chan uint64, 2)
	handle := func(m amnet.Msg) {
		if m.A == 1 {
			ep.Send(amnet.Msg{Dst: 1, Handler: 7, A: 1}) // into the full link
		}
		delivered <- m.A
	}
	ep.Register(8, handle)
	ep.RegisterTry(8, func(m amnet.Msg) bool { handle(m); return true })
	blockProducer(t, nw, conn)

	for seq := uint64(1); seq <= 2; seq++ {
		buf := make([]byte, frameHeader)
		putHeader(buf, &amnet.Msg{Dst: 0, Src: 1, Handler: 8, A: seq}, seq)
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
	for want := uint64(1); want <= 2; want++ {
		select {
		case a := <-delivered:
			if a != want {
				t.Fatalf("delivered %d, want %d", a, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d never delivered: the handler before it waited on the journal bound", want)
		}
	}
	// The reader counts a direct delivery after the handler has returned,
	// and only then lets go of the node's token: the second handler's
	// send above can win that race, so wait for the token before reading
	// the count.
	for deadline := time.Now().Add(5 * time.Second); ep.Busy(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("node 0's dispatch token still held 5s after the last delivery")
		}
	}
	if d := ep.Stats().Snapshot().RecvDirect; d != 2 {
		t.Errorf("RecvDirect = %d, want 2: the frames did not run on the reader", d)
	}
	s := ep.out[1]
	s.mu.Lock()
	n := len(s.journal)
	s.mu.Unlock()
	if n <= maxPending {
		t.Errorf("journal holds %d frames, want the reply past the bound of %d", n, maxPending)
	}
}

// TestHostileAckOnDataFrameIgnored is TestAckNeverJournaledIgnored at
// the reader: a data frame whose header acks a sequence number the
// reverse sender never journaled is delivered, and its ack changes
// nothing — the journal keeps its frames and acked stays put — while a
// genuine ack on the next frame still releases them.
func TestHostileAckOnDataFrameIgnored(t *testing.T) {
	nw, conn := halfMesh(t, 1) // the test plays node 0
	defer nw.Close()
	ep := nw.eps[0]
	got := make(chan uint64, 2)
	ep.Register(7, func(m amnet.Msg) { got <- m.A })
	nw.Start()

	deliver := func(seq, ack uint64) {
		t.Helper()
		buf := make([]byte, frameHeader)
		putHeader(buf, &amnet.Msg{Dst: 1, Src: 0, Handler: 7, A: seq}, seq)
		binary.LittleEndian.PutUint64(buf[ackOff:], ack)
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
		select {
		case a := <-got:
			if a != seq {
				t.Fatalf("delivered frame %d, want %d", a, seq)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("frame %d not delivered", seq)
		}
	}
	deliver(1, 0)

	// Leave three frames unacked in node 1's journal to node 0: the
	// test reads them off the connection and acks none.
	for i := 0; i < 3; i++ {
		ep.Send(amnet.Msg{Dst: 0, Handler: 7})
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	for back := 0; back < 3; {
		f, err := readFrame(br)
		if err != nil {
			t.Fatalf("node 0 got %d of 3 frames: %v", back, err)
		}
		if f.seq != 0 {
			back++
		}
	}
	s := ep.out[0]
	journal := func() (int, uint64) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.journal), s.acked
	}

	// The reader handles a frame's ack before delivering the frame.
	deliver(2, ^uint64(0))
	if n, acked := journal(); n != 3 || acked != 0 {
		t.Fatalf("bogus ack accepted: journal %d frames, acked %d", n, acked)
	}
	deliver(3, 2)
	if n, acked := journal(); n != 1 || acked != 2 {
		t.Fatalf("genuine ack after the bogus one: journal %d frames, acked %d", n, acked)
	}
}

// TestAckNeverJournaledIgnored pins the ack guard: a cumulative ack for
// a sequence number beyond anything this sender ever journaled (a
// corrupt or hostile peer) must be ignored — accepting it would recycle
// in-flight journal frames (use-after-free via the buffer pool) and
// wedge the link by making every genuine ack look stale.
func TestAckNeverJournaledIgnored(t *testing.T) {
	s := &sender{}
	s.notEmpty = sync.NewCond(&s.mu)
	s.notFull = sync.NewCond(&s.mu)
	for i := uint64(1); i <= 3; i++ {
		f := amnet.Alloc(frameHeader)
		binary.LittleEndian.PutUint64(f[seqOff:], i)
		s.journal = append(s.journal, f)
		s.nextSeq = i
	}
	s.ack(100, false) // never journaled: must be a no-op
	if len(s.journal) != 3 || s.acked != 0 {
		t.Fatalf("bogus ack accepted: journal %d frames, acked %d", len(s.journal), s.acked)
	}
	s.ack(2, false) // genuine ack still works after the bogus one
	if len(s.journal) != 1 || s.acked != 2 {
		t.Fatalf("genuine ack after bogus one: journal %d frames, acked %d", len(s.journal), s.acked)
	}
	if got := seqOf(s.journal[0]); got != 3 {
		t.Fatalf("surviving journal frame has seq %d, want 3", got)
	}
	amnet.Recycle(s.journal[0])
}

// TestPeerLostLeavesJournalToWriter declares a peer down while the
// writer is stuck mid-batch on a socket nobody reads. The frames of
// that batch are still the writer's to read, so peerLost must not hand
// them back to the buffer pool: the writer releases the journal when it
// exits. Under -race, a journal frame recycled early and reused by the
// next Alloc shows up as a data race with the writer.
func TestPeerLostLeavesJournalToWriter(t *testing.T) {
	conn, peer := net.Pipe()
	defer peer.Close()
	ep := &endpoint{Node: amnet.NewNode(0, frameHeader), nw: &network{}, links: make([]recvLink, 2), downSent: make(map[amnet.NodeID]bool)}
	s := newSender(ep, 1, "", conn)
	go io.ReadFull(peer, make([]byte, len(s.hello))) // take the hello, then stop reading
	// Queue the frames before the writer starts so it takes them as one
	// batch, its first connection's replay; two of them overflow its
	// 64 KiB buffer, so it blocks in a socket write with frames of the
	// batch still unread.
	const size = 40 << 10
	for i := 0; i < 4; i++ {
		s.enqueue(amnet.Alloc(size))
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go s.run(&wg)
	for {
		s.mu.Lock()
		taken := len(s.queue) == 0
		s.mu.Unlock()
		if taken {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.peerLost()
	reused := make([][]byte, 4)
	for i := range reused {
		reused[i] = amnet.Alloc(size)
		putHeader(reused[i], &amnet.Msg{}, 0)
	}
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.journal) != 0 {
		t.Fatalf("writer exited leaving %d journal frames", len(s.journal))
	}
}

// TestFrameNamingNoHandlerClosesConn: a data frame whose handler id is
// past the handler table is rejected by the decoder, so the reader closes
// its connection as for a corrupt stream instead of indexing the table.
func TestFrameNamingNoHandlerClosesConn(t *testing.T) {
	hostileFrameClosesConn(t, amnet.Msg{Dst: 1, Src: 0, Handler: amnet.MaxHandlers})
}

// TestMisaddressedFrameClosesConn: a data frame whose Src is not the node
// its connection's hello named (here one outside the cluster, which the
// handler's reply would be sent to), or whose Dst is not the receiving
// node, closes the connection undelivered.
func TestMisaddressedFrameClosesConn(t *testing.T) {
	t.Run("src", func(t *testing.T) { hostileFrameClosesConn(t, amnet.Msg{Dst: 1, Src: 99, Handler: 7}) })
	t.Run("dst", func(t *testing.T) { hostileFrameClosesConn(t, amnet.Msg{Dst: 0, Src: 0, Handler: 7}) })
}

// hostileFrameClosesConn writes m as a data frame on a raw connection to
// node 1 that introduced itself as node 0, and checks that node 1 closes
// the connection without running a handler, and that the mesh still
// carries node 0's genuine traffic afterwards.
func hostileFrameClosesConn(t *testing.T, m amnet.Msg) {
	nwi, err := New(Loopback(2))
	if err != nil {
		t.Fatal(err)
	}
	defer nwi.Close()
	nw := nwi.(*network)
	eps := nw.Endpoints()
	got := make(chan amnet.Msg, 4)
	eps[1].Register(7, func(m amnet.Msg) {
		got <- m
		eps[1].Send(amnet.Msg{Dst: m.Src, Handler: 7}) // reply to the sender
	})
	eps[0].Register(7, func(amnet.Msg) {})
	nw.Start()

	conn, err := net.Dial("tcp", nw.addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var hello [4]byte // node 0
	buf := make([]byte, frameHeader)
	putHeader(buf, &m, 1)
	if _, err := conn.Write(append(hello[:], buf...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("node 1 kept the connection open after a hostile frame")
	}
	eps[0].Send(amnet.Msg{Dst: 1, Handler: 7, A: 42})
	select {
	case d := <-got:
		if d.A != 42 {
			t.Fatalf("hostile frame delivered: %+v", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("genuine frame not delivered after the hostile connection closed")
	}
}
