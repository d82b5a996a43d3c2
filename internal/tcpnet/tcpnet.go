// Package tcpnet implements the amnet.Network interface over real TCP
// sockets (loopback by default): the same Active Messages contract —
// per-pair FIFO ordering, non-blocking sends, serialized handler delivery
// per sender — carried by length-prefixed frames. It demonstrates the
// paper's portability claim: Ace runs on any system with an Active
// Messages mechanism (Section 1).
//
// A pair of distinct nodes shares one duplex TCP connection: the lower
// id dials, the higher id accepts, and each side's sender and reader
// use the same socket, so a reply's data segment carries the TCP ack of
// the request it answers. A node sends itself nothing over a socket: a
// self-message goes straight to its own amnet.Node, in a pooled copy of
// its payload.
//
// The send path is coalescing, except for replies. Send encodes the
// frame into a pooled buffer (amnet.Alloc/Recycle; a delivered
// Msg.Payload is owned by the handler per the fabric's ownership
// contract). If the link is idle — its writer is parked, nothing is
// queued, no tail is pending — and a data frame has arrived from the
// peer since the link's last inline write, Send writes the frame itself
// with one non-blocking write that never parks; whatever the kernel does
// not take becomes the link's tail, which the writer sends before
// anything queued later. Every other frame goes to the link's writer
// goroutine, which drains its queue in batches through one buffered
// writer and flushes when the queue goes empty: a burst of n messages
// costs one write per 64 KiB. The reply rule is what keeps bursts
// batched: a request/reply exchange writes each message on the
// goroutine that made it, with no hand-off to the writer, while a
// one-way stream inlines at most its first frame, since nothing comes
// back to re-arm the rule, and coalesces the rest. Inlining every send
// instead cut a 16 B stream to a write per message.
//
// The receive path is the channel fabric's, direct dispatch included:
// the endpoint embeds an amnet.Node. A connection's reader dispatches
// each frame there, running its TryHandler on the reader's own goroutine
// when the node's token is free and nothing is queued, and queueing it
// otherwise, for the pump (or the compute thread polling from its wait)
// to serve, one handler at a time in arrival order.
//
// Connections are supervised. Every data frame carries a per-link
// sequence number and stays journaled on the sender until the receiver
// acknowledges it. Acks are cumulative and ride in the header of every
// frame going the other way; a standalone ack frame goes out only when
// ackEvery data frames met no reverse traffic, on a duplicate, or from
// the once-a-second probe. A broken connection is redialed by the dialer
// with exponential backoff and jitter; the acceptor's accept loop hands
// the redial to its sender. Both sides open the new connection with a
// standalone ack, which is how the acceptor answers the redial, and
// replay their journals on it, and each receiver drops the frames it
// already delivered — so a transient connection loss costs latency, not
// the fabric contract. A dialer whose maxAttempts redials in a row go
// unanswered, or an acceptor that sees no connection from its dialer
// within as long as those attempts can last (redialBudget), declares the
// peer down through amnet.PeerAware, turning would-be hangs into typed
// errors upstream.
// Supervision is fixed by the constants below, not configured.
// Reconnects, backoffs, retransmits and duplicate drops are all counted
// in the endpoint Stats.
package tcpnet

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/acedsm/ace/internal/amnet"
)

// Config describes the transport's cluster topology: the total node
// count, the addresses, and which nodes this process hosts. It
// satisfies amnet.Transport, so a Config is assigned directly to
// Options.Transport; Loopback is the in-process preset.
type Config struct {
	// Nodes is the total number of logical nodes in the cluster. Zero is
	// filled in by Connect with the cluster's processor count.
	Nodes int

	// Addrs, when set, is every node's data address indexed by node id
	// (len must equal Nodes). Empty means loopback: every node is hosted
	// in this process on an ephemeral 127.0.0.1 port.
	Addrs []string

	// Local lists the node ids hosted by this process; each gets a
	// listener (at Addrs[id] when Addrs is set, else an ephemeral
	// loopback port), a mailbox and a dispatch pump. Empty means all
	// Nodes are local — the single-process mesh.
	Local []int
}

// Connection supervision.
const (
	// dialTimeout bounds each dial (initial and reconnect) and the
	// accept side's wait for the hello frame.
	dialTimeout = 2 * time.Second

	// backoffBase is the first retry backoff; each attempt doubles it up
	// to backoffMax, plus up to 100% jitter.
	backoffBase = 5 * time.Millisecond
	backoffMax  = 500 * time.Millisecond

	// maxAttempts is the number of consecutive failed dials (or
	// reconnect attempts) after which a dial fails (or the peer is
	// declared down through amnet.PeerAware). A redial fails unless the
	// acceptor answers it. The acceptor of a link waits for the dialer's
	// connection as long as those attempts can last (redialBudget).
	maxAttempts = 8

	// ackEvery is the receive-side ack cadence: a reader sends a
	// standalone ack once it has delivered ackEvery data frames that no
	// outgoing frame's header has acknowledged, and re-acks every
	// ackEvery duplicates. The probe acks whatever is left within
	// probeInterval.
	ackEvery = 64

	// writeTimeout bounds each batch write; an expired deadline is a
	// connection failure and triggers reconnection.
	writeTimeout = 10 * time.Second

	// probeInterval is the cadence of the ack probe (see
	// network.probeLoop).
	probeInterval = time.Second
)

// redialBudget is how long the acceptor of a link waits for the
// dialer's connection before it declares the peer down: as long as the
// dialer can take to notice the failure (a write's writeTimeout) and
// then make its maxAttempts attempts, each a dial and a backoff with
// full jitter. A link's first connection gets the same budget, counted
// from Connect.
var redialBudget = func() time.Duration {
	d := writeTimeout + maxAttempts*dialTimeout
	for n := 1; n <= maxAttempts; n++ {
		d += 2 * backoffStep(n)
	}
	return d
}()

// Loopback is the in-process preset: an n-node full TCP mesh on
// ephemeral 127.0.0.1 ports — what test and benchmark clusters run on.
func Loopback(n int) Config { return Config{Nodes: n} }

// Connect implements amnet.Transport: a Config is assigned directly to
// Options.Transport and NewCluster asks it for the fabric. A Nodes
// count already set must agree with the cluster's processor count.
func (c Config) Connect(n int) (amnet.Network, error) {
	if c.Nodes == 0 {
		c.Nodes = n
	}
	if c.Nodes != n {
		return nil, fmt.Errorf("tcpnet: transport configured for %d nodes, cluster wants %d", c.Nodes, n)
	}
	return New(c)
}

// New builds the transport for cfg: a listener, mailbox and dispatch
// pump per local node, and a supervised link from every local node to
// every other node in the cluster. With the loopback preset (no Addrs) that
// is the full in-process mesh; with Addrs and Local set it is one
// process's share of a multi-process cluster.
func New(cfg Config) (amnet.Network, error) {
	nd, err := Listen(cfg)
	if err != nil {
		return nil, err
	}
	addrs := cfg.Addrs
	if addrs == nil {
		addrs = nd.Addrs() // loopback: every node local, addresses just bound
	}
	return nd.Connect(addrs)
}

// Listen binds the local nodes' listeners without dialing anyone: the
// first half of New, split out for bootstrap flows (the gossip
// rendezvous) that must learn their own ephemeral addresses — and
// advertise them — before the full address list is known. Complete the
// mesh with Node.Connect, or abandon it with Node.Close.
func Listen(cfg Config) (*Node, error) {
	if cfg.Nodes <= 0 {
		return nil, fmt.Errorf("tcpnet: invalid node count %d", cfg.Nodes)
	}
	if cfg.Addrs != nil && len(cfg.Addrs) != cfg.Nodes {
		return nil, fmt.Errorf("tcpnet: %d addresses for %d nodes", len(cfg.Addrs), cfg.Nodes)
	}
	local := cfg.Local
	if local == nil {
		local = make([]int, cfg.Nodes)
		for i := range local {
			local[i] = i
		}
	}
	if len(local) == 0 {
		return nil, fmt.Errorf("tcpnet: no local nodes")
	}
	nw := &network{
		nodes:      cfg.Nodes,
		local:      local,
		eps:        make([]*endpoint, len(local)),
		byID:       make([]*endpoint, cfg.Nodes),
		listeners:  make([]net.Listener, len(local)),
		started:    make(chan struct{}),
		wired:      make(chan struct{}),
		quit:       make(chan struct{}),
		redialWait: redialBudget,
	}
	for i, id := range local {
		if id < 0 || id >= cfg.Nodes || nw.byID[id] != nil {
			nw.Close()
			return nil, fmt.Errorf("tcpnet: bad local node id %d", id)
		}
		bind := "127.0.0.1:0"
		if cfg.Addrs != nil {
			bind = cfg.Addrs[id]
		}
		l, err := net.Listen("tcp", bind)
		if err != nil {
			nw.Close()
			return nil, err
		}
		nw.listeners[i] = l
		ep := &endpoint{
			Node:     amnet.NewNode(amnet.NodeID(id), frameHeader),
			nw:       nw,
			links:    make([]recvLink, cfg.Nodes),
			downSent: make(map[amnet.NodeID]bool),
		}
		nw.eps[i] = ep
		nw.byID[id] = ep
	}
	// Accept side: each local node runs a persistent accept loop for the
	// network's lifetime; the hello on each connection names the dialing
	// peer, so initial mesh connections and redials look the same.
	for i := range local {
		nw.acceptWG.Add(1)
		go nw.acceptLoop(i)
	}
	return &Node{nw: nw}, nil
}

// Node is a bound-but-unconnected transport share: Listen's result,
// holding the local listeners while bootstrap learns the peer
// addresses.
type Node struct {
	nw        *network
	connected bool
}

// Addrs returns the bound listen addresses of the local nodes, in
// Config.Local order — what a bootstrap layer advertises to peers.
func (nd *Node) Addrs() []string {
	out := make([]string, len(nd.nw.listeners))
	for i, l := range nd.nw.listeners {
		out[i] = l.Addr().String()
	}
	return out
}

// Connect completes the mesh: addrs is every node's data address,
// indexed by node id. Each local node gets a supervised link to every
// other node, and dials only the higher ids: a lower id dials it, and
// its accept loop hands that connection to the link, or, if none comes
// within redialBudget, declares that peer down. The returned
// network's endpoints are the local nodes in Config.Local order;
// dispatch is held back until the network's Start (or the first local
// Send) so the runtime can finish registering handlers before a fast
// peer's frames are delivered.
func (nd *Node) Connect(addrs []string) (amnet.Network, error) {
	nw := nd.nw
	if nd.connected {
		return nil, fmt.Errorf("tcpnet: Connect called twice")
	}
	if len(addrs) != nw.nodes {
		return nil, fmt.Errorf("tcpnet: %d addresses for %d nodes", len(addrs), nw.nodes)
	}
	nd.connected = true
	nw.addrs = append([]string(nil), addrs...)
	for _, ep := range nw.eps {
		ep.out = make([]*sender, nw.nodes)
		for j := range nw.nodes {
			if j == int(ep.ID()) {
				continue // self-messages never reach a socket (see Send)
			}
			var conn net.Conn
			if int(ep.ID()) < j {
				c, err := dialInitial(addrs[j])
				if err != nil {
					nw.Close()
					return nil, err
				}
				conn = c
			}
			s := newSender(ep, amnet.NodeID(j), addrs[j], conn)
			ep.out[j] = s
			nw.sendWG.Add(1)
			go s.run(&nw.sendWG)
		}
	}
	nw.sendWG.Add(1)
	go nw.probeLoop()
	// Sender tables exist for every local endpoint; accept loops parked
	// on the wire gate (a peer that dialed faster than our bootstrap)
	// may hand their connections over.
	nw.wire()
	for _, ep := range nw.eps {
		nw.pumpWG.Add(1)
		go func() {
			defer nw.pumpWG.Done()
			<-nw.started // hold dispatch until handler registration finishes
			ep.Serve()
		}()
	}
	return nw, nil
}

// Close abandons an unconnected Node (bootstrap failure), releasing its
// listeners. After a successful Connect the returned network owns them.
func (nd *Node) Close() error {
	if nd.connected {
		return nil
	}
	return nd.nw.Close()
}

// dialInitial dials a peer with retry: in a multi-process bootstrap the
// peers bind before they advertise, but a dial can still race a loaded
// accept queue, and one transient refusal must not fail the whole
// mesh. The budget is reconnect's.
func dialInitial(addr string) (net.Conn, error) {
	for attempt := 1; ; attempt++ {
		conn, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			return conn, nil
		}
		if attempt >= maxAttempts {
			return nil, fmt.Errorf("tcpnet: dial %s: %w", addr, err)
		}
		backoff(attempt)
	}
}

// backoffStep is the retry pause before attempt n, counted from 1:
// backoffBase doubled per attempt up to backoffMax.
func backoffStep(n int) time.Duration {
	return min(backoffBase<<(n-1), backoffMax)
}

// backoff is the one retry pause of dialInitial and reconnect: it sleeps
// backoffStep(n) plus up to 100% jitter.
func backoff(n int) {
	step := backoffStep(n)
	time.Sleep(step + time.Duration(rand.Int63n(int64(step))))
}

// tuneConn shapes a mesh connection for the coalescing writer: Nagle is
// off (the writer already batches frames and an inline write is one
// frame that should leave now, so the kernel must not hold either back),
// and the socket buffers are pinned so throughput does not ride on the
// kernel's autotuning warm-up.
func tuneConn(conn net.Conn) {
	tc, ok := conn.(*net.TCPConn)
	if !ok {
		return
	}
	tc.SetNoDelay(true)
	tc.SetWriteBuffer(1 << 20)
	tc.SetReadBuffer(1 << 20)
}

type network struct {
	nodes     int         // total cluster size
	local     []int       // node ids hosted here, in Config.Local order
	eps       []*endpoint // parallel to local
	byID      []*endpoint // indexed by node id; nil for remote nodes
	listeners []net.Listener
	addrs     []string
	started   chan struct{} // closed by Start: dispatch may begin
	live      atomic.Bool   // set by Start, before started closes: readers may dispatch directly
	startOnce sync.Once
	wired     chan struct{} // closed by Connect: sender tables exist, accepted connections may be handed over
	wireOnce  sync.Once
	quit      chan struct{} // closed by Close: the probe loop exits
	// redialWait is how long an acceptor waits for its dialer's
	// connection: redialBudget, shortened only by tests.
	redialWait time.Duration
	acceptWG   sync.WaitGroup
	sendWG     sync.WaitGroup // writers and the probe loop
	pumpWG     sync.WaitGroup
	closed     atomic.Bool
}

func (n *network) Endpoints() []amnet.Endpoint {
	out := make([]amnet.Endpoint, len(n.eps))
	for i, ep := range n.eps {
		out[i] = ep
	}
	return out
}

// Start implements amnet.Network: it releases the dispatch pumps and the
// readers' direct dispatch, held back so a fast peer's frames cannot
// reach an empty handler table. Incoming frames queue (and are acked)
// meanwhile, so nothing is lost.
func (n *network) Start() {
	n.startOnce.Do(func() {
		n.live.Store(true)
		close(n.started)
	})
}

// wire releases the accept loops: before Connect builds the sender
// tables, an accepted connection has no link to join. Closed by
// Connect, and by Close so an abandoned bootstrap's parked accept loops
// go on to drop what they accepted.
func (n *network) wire() { n.wireOnce.Do(func() { close(n.wired) }) }

// DeclarePeerDown forces the supervised senders to peer as lost, as if
// their reconnect budgets were exhausted: the gossip layer's suspicion
// verdict feeding the same amnet.PeerAware path the transport uses for
// its own failures. Idempotent: each endpoint's peer-down handler fires
// at most once per peer. An out-of-range id is ignored.
func (n *network) DeclarePeerDown(peer amnet.NodeID) {
	if int(peer) < 0 || int(peer) >= n.nodes {
		return
	}
	for _, ep := range n.eps {
		if ep == nil || ep.ID() == peer {
			continue
		}
		if ep.out != nil && ep.out[peer] != nil {
			ep.out[peer].peerLost()
		} else {
			ep.firePeerDown(peer)
		}
	}
}

// acceptLoop accepts connections for node j until the listener closes.
// Each connection opens with a 4-byte hello naming the dialer, which
// must be a lower id: only a lower id dials. The connection is handed
// to the link to that peer, as its first connection or as a redial
// replacing the current one. A connection that fails the hello
// (timeout, an id out of range, this node's own or a higher one) is
// dropped without disturbing the node.
func (n *network) acceptLoop(j int) {
	defer n.acceptWG.Done()
	ep := n.eps[j]
	for {
		conn, err := n.listeners[j].Accept()
		if err != nil {
			return // listener closed
		}
		tuneConn(conn)
		conn.SetReadDeadline(time.Now().Add(dialTimeout))
		var hello [4]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			conn.Close()
			continue
		}
		conn.SetReadDeadline(time.Time{})
		src := int32(binary.LittleEndian.Uint32(hello[:]))
		if src < 0 || src >= int32(ep.ID()) {
			conn.Close()
			continue
		}
		<-n.wired
		if ep.out == nil || ep.out[src] == nil { // closed before Connect finished
			conn.Close()
			continue
		}
		ep.out[src].adopt(conn)
	}
}

// KillLink forcibly closes src's end of the connection between src and
// dst, as if the network dropped it. Both sides notice, the dialer
// redials, each side replays its journal, and each receiver dedups — a
// test hook for the reconnect machinery. src must be a local node and
// dst another node.
func (n *network) KillLink(src, dst int) {
	n.byID[src].out[dst].killConn()
}

// Close tears the mesh down in dependency order: stop accepting, drain
// and close every sender (closing its connection ends both sides'
// readers), wait for readers, then close the nodes so the pumps exit.
func (n *network) Close() error {
	if !n.closed.Swap(true) {
		close(n.quit)
	}
	n.Start() // release gated pumps so they can drain and exit
	n.wire()  // release parked readers so they can exit
	for _, l := range n.listeners {
		if l != nil {
			l.Close()
		}
	}
	n.acceptWG.Wait()
	for _, ep := range n.eps {
		if ep == nil {
			continue
		}
		for _, s := range ep.out {
			if s != nil {
				s.close()
			}
		}
	}
	// Each writer closes its link's connections as it exits, which ends
	// the readers on them: a peer that outlives this mesh (multi-process
	// shutdown is not synchronized) cannot hold a reader open.
	n.sendWG.Wait()
	for _, ep := range n.eps {
		if ep != nil {
			ep.readers.Wait()
		}
	}
	for _, ep := range n.eps {
		if ep != nil {
			ep.Node.Close()
		}
	}
	n.pumpWG.Wait()
	return nil
}

// maxPending bounds a sender's unacknowledged journal (which includes
// the not-yet-written queue). Enqueueing past the bound blocks until
// acks drain it — backpressure against a slow or absent receiver — but
// only while the node's dispatch token is free: a goroutine holding it
// (the pump, a polling compute thread, a reader dispatching directly)
// appends past the bound instead, by at most one handler's sends. A
// reader running a handler that waited here could be the very reader
// that must read the ack. So nothing that waits here runs handlers, the
// readers never wait here, and the wait is bounded by network round
// trips, not by remote handler progress. An inline write changes none
// of this: it happens after the bound, and never parks.
const maxPending = 4096

// sender owns one link, the connection to one peer that its reader
// shares. Send writes a frame inline when the link is idle and answered
// (see the package comment), or enqueues it for the writer goroutine,
// which drains the queue in batches through a buffered writer and
// flushes when the queue goes empty. Data frames carry a sequence
// number and are retained in the journal until the peer's cumulative
// ack covers them; when the connection fails the dialer redials with
// backoff, the acceptor waits for that redial, and each replays its
// journal on the new connection. Frames are pooled: control frames are
// recycled after writing, data frames when acked.
type sender struct {
	mu       sync.Mutex
	notEmpty *sync.Cond      // writer waits: frames to write, a broken connection, a redial, or closed
	notFull  *sync.Cond      // producers wait: journal below maxPending or closed
	conn     net.Conn        // the link's connection; nil until an acceptor's first
	raw      syscall.RawConn // conn's handle for inline writes; nil if it has none
	next     net.Conn        // acceptor: the latest redial, not yet taken by the writer
	broken   bool            // conn failed or was superseded: the writer must reconnect
	busy     bool            // the writer is not parked idle (it has work, is reconnecting or not yet up): no inline write
	heard    bool            // a data frame arrived from the peer since the last inline write
	tail     []byte          // unwritten rest of an inline write, written before the queue
	queue    [][]byte        // frames not yet handed to the writer
	journal  [][]byte        // data frames not yet acked: seqs nextSeq-len+1..nextSeq (superset of queue's data frames)
	jarr     [][]byte        // journal's whole backing array, so release can slide the journal back to its front
	nextSeq  uint64          // last assigned data sequence number (0 = control)
	acked    uint64          // highest cumulative ack received
	failed   int             // dialer: redial attempts since the peer last answered a connection
	// replaying is set while resume writes a journal snapshot outside
	// the lock; ack() then only records the ack and leaves the release to
	// the end of the replay, so snapshot frames stay valid through it.
	replaying bool
	closed    bool

	// The inline write's argument and result, under mu. rawWrite is
	// writeRaw as a method value, built once so a write allocates
	// nothing.
	inline   []byte
	inlineN  int
	rawWrite func(fd uintptr) bool

	ep    *endpoint
	peer  amnet.NodeID
	dials bool // this side dials: its id is the lower
	addr  string
	hello [4]byte
}

// newSender builds the link from ep to peer. conn is the connection the
// dialer already made, nil on the acceptor side. The writer owns the
// link (busy) until it first parks with the connection up.
func newSender(ep *endpoint, peer amnet.NodeID, addr string, conn net.Conn) *sender {
	s := &sender{conn: conn, ep: ep, peer: peer, dials: ep.ID() < peer, addr: addr, busy: true}
	binary.LittleEndian.PutUint32(s.hello[:], uint32(ep.ID()))
	s.notEmpty = sync.NewCond(&s.mu)
	s.notFull = sync.NewCond(&s.mu)
	s.rawWrite = s.writeRaw
	return s
}

// probeLoop is the ack probe, one per network, with two jobs. It
// delivers the acks the cadence left owed: a link whose delivered
// horizon is ahead of the last ack written back gets a standalone ack,
// so an idle peer's journal is released within probeInterval. And it is
// the ack-stall watchdog: while a sender's journal holds unacked frames
// and its queue is empty, its writer is parked. A reader notices a
// connection the peer closed or reset, but not a half-open one (the
// peer's host vanished, or a socket that takes no writes while its
// reads just block): nothing would ever write to it again, so the
// reconnect budget would never be consumed and producers blocked on
// backpressure would hang forever with the peer never declared down.
// Every probeInterval each such sender gets an ack frame too, forcing
// its writer through a write: on a live connection it is one more ack,
// on a dead one it fails (or draws the reset that fails the reader),
// and the normal reconnect→peerLost path frees the producers.
func (n *network) probeLoop() {
	defer n.sendWG.Done()
	t := time.NewTicker(probeInterval)
	defer t.Stop()
	for {
		select {
		case <-n.quit:
			return
		case <-t.C:
		}
		for _, ep := range n.eps {
			for j, s := range ep.out {
				if s == nil {
					continue
				}
				s.mu.Lock()
				stalled := !s.closed && len(s.journal) > 0 && len(s.queue) == 0
				s.mu.Unlock()
				if l := &ep.links[j]; stalled || l.seen.Load() > l.told.Load() {
					ep.sendAck(s.peer)
				}
			}
		}
	}
}

// enqueue appends one encoded data frame, assigning its sequence number
// and journaling it, and then writes it inline if the link is idle and
// answered, or queues it for the writer. While the unacked journal is at
// capacity it blocks, unless the node's token is held (see maxPending).
// After close, frames are dropped (Network.Close documents that queued
// messages may be dropped).
func (s *sender) enqueue(frame []byte) {
	s.mu.Lock()
	for len(s.journal) >= maxPending && !s.closed && !s.ep.Busy() {
		s.notFull.Wait()
	}
	if s.closed {
		s.mu.Unlock()
		amnet.Recycle(frame)
		return
	}
	s.nextSeq++
	binary.LittleEndian.PutUint64(frame[seqOff:], s.nextSeq)
	grow := len(s.journal) == cap(s.journal)
	s.journal = append(s.journal, frame)
	if grow {
		s.jarr = s.journal[:cap(s.journal)]
	}
	if s.heard && !s.busy && !s.broken && s.raw != nil && len(s.queue) == 0 && s.tail == nil {
		done := s.writeInline(frame)
		s.mu.Unlock()
		if !done {
			s.notEmpty.Signal() // the writer sends the tail
		}
		return
	}
	s.queue = append(s.queue, frame)
	s.mu.Unlock()
	s.notEmpty.Signal()
}

// writeInline stamps frame with the reverse link's ack and makes one
// non-blocking write of it on the calling goroutine. It reports whether
// the kernel took the whole frame; if not, the rest becomes the tail. A
// failed write leaves the whole frame as the tail, and the writer's own
// write of it finds the error and reconnects. The frame is journaled
// already, so a replay covers it whatever this write managed. The
// caller holds s.mu.
func (s *sender) writeInline(frame []byte) bool {
	s.heard = false
	link := &s.ep.links[s.peer]
	ack := link.seen.Load()
	binary.LittleEndian.PutUint64(frame[ackOff:], ack)
	link.told.Store(ack)
	s.inline, s.inlineN = frame, 0
	err := s.raw.Write(s.rawWrite)
	n := s.inlineN
	s.inline = nil
	if err == nil && n == len(frame) {
		return true
	}
	s.tail = frame[n:]
	return false
}

// writeRaw is the inline write's RawConn callback: one write(2) on the
// non-blocking socket, counted as one socket write. It returns true
// whatever the write did, so RawConn.Write never parks the caller to
// wait for the socket.
func (s *sender) writeRaw(fd uintptr) bool {
	s.ep.Stats().Flushes.Add(1)
	n, err := syscall.Write(int(fd), s.inline)
	if err == nil {
		s.inlineN = n
	}
	return true
}

// enqueueControl appends a control frame (seq 0). Control frames skip
// the journal, the backpressure bound and the inline write: acks must
// flow even when the data path is saturated, or the saturation could
// never clear.
func (s *sender) enqueueControl(frame []byte) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		amnet.Recycle(frame)
		return
	}
	s.queue = append(s.queue, frame)
	s.mu.Unlock()
	s.notEmpty.Signal()
}

// ack processes a cumulative acknowledgment carried by a frame from the
// peer, data reporting whether that frame was a data frame (which
// re-arms the inline write): every journaled frame with seq ≤ n is
// released. Monotonic — stale acks (reordered across a reconnect) are
// ignored. During a journal replay only the ack level is recorded; the
// replay releases the covered frames when it ends.
func (s *sender) ack(n uint64, data bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if data {
		s.heard = true
	}
	// An ack for a sequence never journaled here (n > nextSeq) can only
	// come from a corrupt or hostile peer. Accepting it would recycle
	// in-flight journal frames (a use-after-free through the buffer
	// pool) and pin acked above every genuine ack, wedging the link's
	// backpressure forever.
	if n <= s.acked || n > s.nextSeq {
		return
	}
	s.acked = n
	if !s.replaying {
		s.release(n)
	}
}

// release recycles the journal prefix with seq ≤ n and wakes the
// producers blocked on backpressure. The journal's seqs are contiguous
// and end at nextSeq, so the prefix is counted, not read: the writer may
// be stamping an ack into any frame still journaled. Releasing from the
// front costs the journal's array its front capacity, so once the lost
// front is as long as what is left, the rest slides back to the start:
// each slide copies no more frames than were released since the last,
// and enqueue keeps appending into the same array. The caller holds
// s.mu.
func (s *sender) release(n uint64) {
	before := s.nextSeq - uint64(len(s.journal)) // seq just before journal[0]
	if n <= before || len(s.journal) == 0 {
		return
	}
	k := int(min(n, s.nextSeq) - before)
	for i := range s.journal[:k] {
		amnet.Recycle(s.journal[i])
		s.journal[i] = nil
	}
	s.journal = s.journal[k:]
	if off := cap(s.jarr) - cap(s.journal); off >= len(s.journal) {
		m := copy(s.jarr, s.journal)
		clear(s.jarr[m : off+m])
		s.journal = s.jarr[:m]
	}
	s.notFull.Broadcast()
}

// dropQueue empties the queue, recycling its control frames (its data
// frames are the journal's), and drops the tail (a journal frame's
// rest). It returns how many data frames the queue held. The caller
// holds s.mu.
func (s *sender) dropQueue() int {
	data := 0
	for i, f := range s.queue {
		if seqOf(f) == 0 {
			amnet.Recycle(f)
		} else {
			data++
		}
		s.queue[i] = nil
	}
	s.queue = s.queue[:0]
	s.tail = nil
	return data
}

// close asks the writer to flush what is queued and shut the connection
// down.
func (s *sender) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.notEmpty.Signal()
	s.notFull.Broadcast()
}

// killConn severs the current connection (test hook; see
// network.KillLink).
func (s *sender) killConn() {
	s.mu.Lock()
	c := s.conn
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// adopt takes a redial that the accept loop received from the peer: it
// becomes the link's next connection, and the current one, which the
// dialer has given up on, is closed so that the writer and the reader
// on it let go. The writer takes the redial over in awaitRedial, and a
// resume that was already under way leaves the link broken (see
// resume), so the writer goes back for it.
func (s *sender) adopt(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	if s.next != nil {
		s.next.Close() // superseded before the writer took it
	}
	s.next, s.broken = conn, true
	old := s.conn
	s.mu.Unlock()
	if old != nil {
		old.Close()
	}
	s.notEmpty.Signal()
}

// connLost is the reader's report that conn failed: if it is still the
// link's connection, the writer must reconnect. A reader of a connection
// already replaced reports nothing.
func (s *sender) connLost(conn net.Conn) {
	s.mu.Lock()
	lost := s.conn == conn && !s.closed
	if lost {
		s.broken = true
	}
	s.mu.Unlock()
	if lost {
		s.notEmpty.Signal()
	}
}

func (s *sender) shuttingDown() bool {
	s.mu.Lock()
	c := s.closed
	s.mu.Unlock()
	return c || s.ep.nw.closed.Load()
}

// run is the writer goroutine. It brings the link up, then loops: it
// takes the tail and the whole queue under one lock, copies them into
// the buffered writer, tail first, and flushes only once the queue is
// empty — so bursts coalesce into single syscalls while a lone frame
// still goes out immediately. A write failure or a broken connection
// outside shutdown enters the reconnect path instead of crashing.
func (s *sender) run(wg *sync.WaitGroup) {
	defer wg.Done()
	// The writer may be reading any journal frame up to the moment it
	// exits, so only its exit releases the journal of a shut-down
	// sender. An unclaimed redial dies with it.
	defer func() {
		s.mu.Lock()
		s.release(math.MaxUint64)
		if s.next != nil {
			s.next.Close()
			s.next = nil
		}
		s.mu.Unlock()
	}()
	bw, ok := s.connect()
	if !ok {
		return
	}
	var batch [][]byte
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && s.tail == nil && !s.closed && !s.broken {
			s.busy = false
			s.notEmpty.Wait()
		}
		s.busy = true
		conn := s.conn
		if s.closed && len(s.queue) == 0 && s.tail == nil { // closed and drained
			s.mu.Unlock()
			bw.Flush()
			conn.Close()
			return
		}
		// A broken connection is closed already, so writing what is
		// pending fails at once and the reconnect replays it: the frames
		// count as retransmits whichever of the reader or the writer
		// noticed the failure first.
		broken := s.broken
		tail := s.tail
		s.tail = nil
		batch, s.queue = s.queue, batch[:0]
		s.mu.Unlock()
		var err error
		if broken && len(batch) == 0 && tail == nil {
			err = net.ErrClosed
		} else {
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if tail != nil {
				bw.Write(tail) // an error sticks in bw, for writeBatch or Flush to report
			}
			err = s.writeBatch(bw, batch)
			if err == nil {
				// Flush only when no more frames are waiting; otherwise loop
				// around and extend the batch.
				s.mu.Lock()
				empty := len(s.queue) == 0
				s.mu.Unlock()
				if empty {
					err = bw.Flush()
				}
			}
		}
		if err != nil {
			if s.shuttingDown() {
				conn.Close()
				return
			}
			if bw, ok = s.reconnect(); !ok {
				return
			}
		}
	}
}

// newWriter buffers conn for the writer goroutine. Every write that
// reaches the socket counts one Flushes — including those bufio makes
// mid-Write when a batch overflows its 64 KiB buffer.
func (s *sender) newWriter(conn net.Conn) *bufio.Writer {
	return bufio.NewWriterSize(socketWriter{conn, &s.ep.Stats().Flushes}, 64<<10)
}

// socketWriter counts each Write into the socket.
type socketWriter struct {
	conn    net.Conn
	flushes *atomic.Uint64
}

func (w socketWriter) Write(p []byte) (int, error) {
	w.flushes.Add(1)
	return w.conn.Write(p)
}

// writeBatch copies one batch into the buffered writer, stamping every
// frame with the cumulative ack of the reverse link — everything this
// endpoint has delivered from the peer — and recording it as told.
// Control frames are recycled here (written or not — a lost ack
// regenerates); data frames stay journaled until acked. On error the
// remaining frames are skipped: the journal replay during reconnect
// covers them.
func (s *sender) writeBatch(bw *bufio.Writer, batch [][]byte) error {
	link := &s.ep.links[s.peer]
	ack := link.seen.Load()
	var err error
	for i, f := range batch {
		control := seqOf(f) == 0 // read first: once written, an acked data frame may be recycled
		if err == nil {
			binary.LittleEndian.PutUint64(f[ackOff:], ack)
			_, err = bw.Write(f)
		}
		if control {
			amnet.Recycle(f)
		}
		batch[i] = nil
	}
	if err == nil && len(batch) > 0 {
		link.told.Store(ack)
	}
	return err
}

// connect brings the link up on its first connection: the one Connect
// dialed, or, on the acceptor, the first the peer dials.
func (s *sender) connect() (*bufio.Writer, bool) {
	if s.dials {
		if bw, err := s.resume(s.conn); err == nil {
			return bw, true
		}
	}
	return s.reconnect()
}

// reconnect restores the link on a fresh connection. The dialer redials
// with exponential backoff and jitter. A redial that connects still
// counts as a failed attempt until the acceptor answers it (answered),
// so an acceptor that closes every redial — it has declared this side
// down — exhausts the budget as a refused dial does: after maxAttempts
// unanswered attempts the dialer declares the peer down and shuts the
// sender off. The acceptor waits for the redial instead (awaitRedial).
func (s *sender) reconnect() (*bufio.Writer, bool) {
	s.killConn()
	if !s.dials {
		return s.awaitRedial()
	}
	for {
		s.mu.Lock()
		s.failed++
		n := s.failed
		s.mu.Unlock()
		if n > maxAttempts {
			s.peerLost()
			return nil, false
		}
		if s.shuttingDown() {
			return nil, false
		}
		backoff(n)
		s.ep.Stats().Backoffs.Add(1)
		if s.shuttingDown() {
			return nil, false
		}
		if conn, err := net.DialTimeout("tcp", s.addr, dialTimeout); err == nil {
			if bw, err := s.resume(conn); err == nil {
				return bw, true
			}
			conn.Close()
		}
	}
}

// answered is the report of a dialer's reader that conn, a redial,
// delivered its first frame: the acceptor has taken it, so it counts as
// a reconnect, and if it is still the link's connection the attempts
// start over.
func (s *sender) answered(conn net.Conn) {
	s.mu.Lock()
	if s.conn == conn {
		s.failed = 0
	}
	s.mu.Unlock()
	s.ep.Stats().Reconnects.Add(1)
}

// awaitRedial is the acceptor's reconnect: it resumes the link on each
// connection the accept loop hands over (adopt) until one takes. If none
// comes within the network's redialWait (redialBudget), the first
// connection or a redial after a loss, the peer is declared down.
func (s *sender) awaitRedial() (*bufio.Writer, bool) {
	s.mu.Lock()
	redial, expired := s.conn != nil, false
	s.mu.Unlock()
	t := time.AfterFunc(s.ep.nw.redialWait, func() {
		s.mu.Lock()
		expired = true
		s.mu.Unlock()
		s.notEmpty.Signal()
	})
	defer t.Stop()
	for {
		s.mu.Lock()
		for s.next == nil && !s.closed && !expired {
			s.notEmpty.Wait()
		}
		conn, closed := s.next, s.closed
		s.next = nil
		s.mu.Unlock()
		switch {
		case closed:
			if conn != nil {
				conn.Close()
			}
			return nil, false
		case conn == nil: // no connection within the budget
			s.peerLost()
			return nil, false
		}
		if bw, err := s.resume(conn); err == nil {
			if redial {
				s.ep.Stats().Reconnects.Add(1)
			}
			return bw, true
		}
		conn.Close()
	}
}

// resume makes conn the link's connection: a reader starts on conn, and
// the dialer's hello, a standalone ack and the journal go out on it (the
// receiver drops what it already delivered). The ack re-acks everything
// delivered from the peer, whose acks may have died with the old
// connection, and it is how an acceptor answers a dialer (see
// reconnect). The journal is snapshotted under the lock and replayed
// outside it: a replay can take up to writeTimeout, and holding the lock
// that long would stall enqueue and — via the reader's ack path — the
// receive path for this peer. The queue and the tail are dropped (their
// data frames are journaled; the queue's control frames are stale);
// frames enqueued during the replay land behind the snapshot in the
// queue, preserving seq order, and none is written inline, because the
// writer is busy. The replaying flag keeps concurrent acks from
// recycling snapshot frames mid-write; killConn still interrupts a stuck
// replay because the new connection is already adopted.
func (s *sender) resume(conn net.Conn) (*bufio.Writer, error) {
	tuneConn(conn)
	ack := amnet.Alloc(frameHeader)
	putHeader(ack, &amnet.Msg{Dst: s.peer, Src: s.ep.ID()}, 0)
	s.mu.Lock()
	s.conn, s.raw, s.broken = conn, rawConn(conn), s.next != nil // a newer redial supersedes conn
	redial := s.failed > 0
	retrans := len(s.journal) - s.dropQueue()
	snap := append([][]byte{ack}, s.journal...)
	s.replaying = true
	s.mu.Unlock()
	s.ep.addReader(conn, s, redial)

	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	bw := s.newWriter(conn)
	if s.dials {
		bw.Write(s.hello[:]) // an error sticks in bw, for writeBatch to report
	}
	err := s.writeBatch(bw, snap)
	if err == nil {
		err = bw.Flush()
	}

	s.mu.Lock()
	s.replaying = false
	s.release(s.acked) // the acks that arrived during the replay
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if retrans > 0 {
		s.ep.Stats().Retransmits.Add(uint64(retrans))
	}
	return bw, nil
}

// rawConn returns conn's raw handle for inline writes, or nil if conn
// has none (a net.Pipe in tests): such a link queues every frame.
func rawConn(conn net.Conn) syscall.RawConn {
	if sc, ok := conn.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			return raw
		}
	}
	return nil
}

// peerLost shuts the sender down after an exhausted reconnect budget
// (or DeclarePeerDown) and notifies the endpoint's peer-down handler:
// graceful degradation instead of a hang (the runtime turns it into
// ErrPeerLost). Blocked producers wake and drop their frames; the
// journal is released when the writer exits.
func (s *sender) peerLost() {
	s.mu.Lock()
	s.closed = true
	s.dropQueue()
	s.mu.Unlock()
	s.notFull.Broadcast()
	// Wake or interrupt the writer: when the declaration is external
	// (DeclarePeerDown) it may be parked on the queue, waiting for a
	// redial or blocked mid-write; on the writer's own path these are
	// no-ops. Closing the connection also ends the reader on it.
	s.notEmpty.Signal()
	s.killConn()
	s.ep.firePeerDown(s.peer)
}

// recvLink is the receive-side state of one incoming link. It lives on
// the endpoint, not the connection, so the dedup horizon survives
// reconnects — exactly what makes journal replay safe. mu serializes the
// link's readers (an old and a new one may briefly overlap) through
// dedup and delivery; the link's writer and inline writes read seen and
// write told without it.
type recvLink struct {
	mu     sync.Mutex
	seen   atomic.Uint64 // highest data seq delivered from this src; stored under mu
	told   atomic.Uint64 // the ack last stamped on a frame going back to this src
	queued uint64        // seen when the reader last queued a standalone ack (under mu)
	dups   int           // duplicates dropped since the last re-ack (under mu)
}

// endpoint is one local node: its amnet.Node, which every reader
// dispatches into, and its supervised links, indexed by peer (nil at
// its own id).
type endpoint struct {
	*amnet.Node
	nw      *network
	out     []*sender
	readers sync.WaitGroup
	links   []recvLink

	downMu   sync.Mutex
	downFn   func(amnet.NodeID)
	downSent map[amnet.NodeID]bool
}

func (e *endpoint) Nodes() int { return e.nw.nodes }

// Poll delivers what the readers queued, if the node's token is free.
// Before Start it delivers nothing, as the pump does.
func (e *endpoint) Poll() {
	if e.nw.live.Load() {
		e.Node.Poll()
	}
}

// CopiesPayloadOnSend reports that Send copies the payload into the
// frame buffer before returning, so callers keep ownership of their
// buffer (see amnet.PayloadCopier).
func (e *endpoint) CopiesPayloadOnSend() bool { return true }

// SetPeerDownHandler implements amnet.PeerAware: fn is invoked (once
// per peer) when a peer exhausts the reconnect budget.
func (e *endpoint) SetPeerDownHandler(fn func(peer amnet.NodeID)) {
	e.downMu.Lock()
	e.downFn = fn
	e.downMu.Unlock()
}

func (e *endpoint) firePeerDown(peer amnet.NodeID) {
	e.downMu.Lock()
	fn := e.downFn
	already := e.downSent[peer]
	e.downSent[peer] = true
	e.downMu.Unlock()
	if fn != nil && !already {
		fn(peer)
	}
}

// frame layout: [u32 total][i32 dst][i32 src][u16 handler][4 × u64]
// [u64 seq][u64 ack][payload], a 62-byte header, so a payload-free
// frame fits amnet's smallest pool class. seq is the per-link data
// sequence number; 0 marks a control frame, a standalone ack, which is
// consumed by the reader and never dispatched or counted.
// ack, on every frame, is the cumulative ack of the reverse link: the
// highest seq the frame's sender has delivered from its receiver,
// stamped by the writer as the frame goes out.
const (
	frameHeader = 4 + 4 + 4 + 2 + 32 + 8 + 8
	seqOff      = frameHeader - 16
	ackOff      = frameHeader - 8

	// maxFramePayload bounds a frame's payload; the decoder rejects
	// anything larger before allocating, so a corrupt or hostile length
	// prefix cannot balloon memory.
	maxFramePayload = 64 << 20
	maxFrameTotal   = frameHeader - 4 + maxFramePayload
)

// seqOf reads the sequence number of an encoded frame.
func seqOf(f []byte) uint64 { return binary.LittleEndian.Uint64(f[seqOff:]) }

// Send encodes the message into a pooled frame buffer and hands it to
// the destination's link, which writes it inline or queues it for its
// writer (see enqueue). The payload is copied here, synchronously; one
// connection per pair, written in journal order, preserves per-pair
// FIFO. A message to this node itself goes to its amnet.Node as on the
// channel fabric, in a pooled copy of the payload. Counters are
// per-message and exact regardless of how frames later coalesce.
func (e *endpoint) Send(m amnet.Msg) {
	if int(m.Dst) < 0 || int(m.Dst) >= len(e.out) {
		panic(fmt.Sprintf("tcpnet: send to invalid node %d", m.Dst))
	}
	if len(m.Payload) > maxFramePayload {
		panic(fmt.Sprintf("tcpnet: payload %d exceeds frame limit %d", len(m.Payload), maxFramePayload))
	}
	m.Src = e.ID()
	e.nw.Start() // a local send implies local handlers are registered
	e.CountSend(&m)
	if m.Dst == m.Src {
		p := amnet.Alloc(len(m.Payload))
		copy(p, m.Payload)
		m.Payload = p
		e.Dispatch(m)
		return
	}
	buf := amnet.Alloc(frameHeader + len(m.Payload))
	putHeader(buf, &m, 0)
	copy(buf[frameHeader:], m.Payload)
	e.out[m.Dst].enqueue(buf) // assigns seq under the sender lock
}

// sendAck emits a standalone ack (control frame, seq 0) to src; the
// writer stamps it with everything received from src by then. Acks
// bypass the journal, the backpressure bound and the traffic counters.
func (e *endpoint) sendAck(src amnet.NodeID) {
	buf := amnet.Alloc(frameHeader)
	putHeader(buf, &amnet.Msg{Dst: src, Src: e.ID()}, 0)
	e.out[src].enqueueControl(buf)
}

// putHeader encodes the frame header of m into buf, which holds the
// whole frame (header and payload): the one encoder of the frame layout
// above. The ack word is left zero for the writer to stamp.
func putHeader(buf []byte, m *amnet.Msg, seq uint64) {
	binary.LittleEndian.PutUint32(buf[0:], uint32(len(buf)-4))
	binary.LittleEndian.PutUint32(buf[4:], uint32(m.Dst))
	binary.LittleEndian.PutUint32(buf[8:], uint32(m.Src))
	binary.LittleEndian.PutUint16(buf[12:], uint16(m.Handler))
	binary.LittleEndian.PutUint64(buf[14:], m.A)
	binary.LittleEndian.PutUint64(buf[22:], m.B)
	binary.LittleEndian.PutUint64(buf[30:], m.C)
	binary.LittleEndian.PutUint64(buf[38:], m.D)
	binary.LittleEndian.PutUint64(buf[seqOff:], seq)
	binary.LittleEndian.PutUint64(buf[ackOff:], 0)
}

// addReader starts a goroutine decoding the frames that s's peer sends
// on conn, the link's connection. Reads are buffered, and each payload
// lands in a pooled buffer owned by the eventual handler. If conn is a
// dialer's redial, its first frame tells s that the acceptor took it
// (answered). When conn fails or closes, the reader tells s, whose
// writer reconnects. The
// dedup horizon (recvLink) outlives the connection: a replacement
// reader after a reconnect drops the replayed frames the old one
// already delivered, and delivers under the link lock so the node keeps
// per-link sequence order even if old and new briefly overlap.
func (e *endpoint) addReader(conn net.Conn, s *sender, redial bool) {
	e.readers.Add(1)
	go func() {
		defer e.readers.Done()
		defer s.connLost(conn)
		defer conn.Close()
		br := bufio.NewReaderSize(conn, 64<<10)
		src := s.peer
		link := &e.links[src]
		for answer := redial; ; answer = false {
			f, err := readFrame(br)
			if err != nil {
				return // connection closed or stream corrupt
			}
			if answer {
				s.answered(conn)
			}
			if f.seq != 0 && (f.msg.Src != src || f.msg.Dst != e.ID()) {
				amnet.Recycle(f.msg.Payload)
				return // misaddressed data frame: as corrupt as a bad length
			}
			// Every frame acks our side of the link; ack() judges the
			// value. A data frame also re-arms the inline write.
			s.ack(f.ack, f.seq != 0)
			if f.seq == 0 { // control: a standalone ack, consumed above
				amnet.Recycle(f.msg.Payload)
				continue
			}
			e.receive(link, src, f)
		}
	}()
}

// receive delivers one data frame read from src, dropping it if it is a
// duplicate, and sends a standalone ack when the link has delivered
// ackEvery frames that no outgoing frame or queued ack has covered.
func (e *endpoint) receive(link *recvLink, src amnet.NodeID, f frame) {
	link.mu.Lock()
	if f.seq <= link.seen.Load() {
		// A duplicate means the sender is replaying frames whose ack it
		// never saw (it died with the old connection). Re-ack the dedup
		// horizon on the usual cadence: dropping dups silently would
		// leave a journal that is already at the backpressure bound
		// permanently full — no new data frame could ever flow to earn a
		// fresh ack.
		link.dups++
		reack := link.dups >= ackEvery
		if reack {
			link.dups = 0
		}
		link.mu.Unlock()
		e.Stats().DupFramesDropped.Add(1)
		amnet.Recycle(f.msg.Payload)
		if reack {
			e.sendAck(src)
		}
		return
	}
	link.seen.Store(f.seq)
	e.dispatch(f.msg)
	ackNow := f.seq-max(link.told.Load(), link.queued) >= ackEvery
	if ackNow {
		link.queued = f.seq
	}
	link.mu.Unlock()
	if ackNow {
		e.sendAck(src)
	}
}

// dispatch hands m to the node once Start has published the handler
// tables (amnet.Node.Dispatch), and queues it before. A reader running a
// handler holds the node's token, so the handler's sends never wait on a
// journal bound (see maxPending).
func (e *endpoint) dispatch(m amnet.Msg) {
	if e.nw.live.Load() {
		e.Dispatch(m)
	} else {
		e.Queue(m)
	}
}

// readFrame decodes one length-prefixed frame from the stream. It
// validates the length prefix before allocating, so truncated, corrupt
// or hostile input yields an error — never a panic or an oversized
// allocation. The header is decoded in place in the reader's buffer
// (Peek, then Discard), so a frame costs no allocation beyond its
// pooled payload. A stream that ends mid-header reports
// io.ErrUnexpectedEOF and one that ends between frames io.EOF, as
// io.ReadFull would.
func readFrame(br *bufio.Reader) (frame, error) {
	hdr, err := br.Peek(frameHeader)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return frame{}, err
	}
	f, paylen, err := decodeHeader((*[frameHeader]byte)(hdr))
	if err != nil {
		return frame{}, err
	}
	br.Discard(frameHeader)
	if paylen > 0 {
		f.msg.Payload = amnet.Alloc(paylen)
		if _, err := io.ReadFull(br, f.msg.Payload); err != nil {
			amnet.Recycle(f.msg.Payload)
			return frame{}, err
		}
	}
	return f, nil
}

// decodeHeader parses and validates a frame header, returning the
// decoded message envelope and the payload length still to be read.
func decodeHeader(hdr *[frameHeader]byte) (frame, int, error) {
	total := binary.LittleEndian.Uint32(hdr[0:])
	if total < frameHeader-4 {
		return frame{}, 0, fmt.Errorf("tcpnet: frame length %d shorter than header", total)
	}
	if total > maxFrameTotal {
		return frame{}, 0, fmt.Errorf("tcpnet: frame length %d exceeds limit %d", total, uint64(maxFrameTotal))
	}
	if h := binary.LittleEndian.Uint16(hdr[12:]); h >= amnet.MaxHandlers {
		return frame{}, 0, fmt.Errorf("tcpnet: frame names handler %d, table holds %d", h, amnet.MaxHandlers)
	}
	f := frame{
		msg: amnet.Msg{
			Dst:     amnet.NodeID(int32(binary.LittleEndian.Uint32(hdr[4:]))),
			Src:     amnet.NodeID(int32(binary.LittleEndian.Uint32(hdr[8:]))),
			Handler: amnet.HandlerID(binary.LittleEndian.Uint16(hdr[12:])),
			A:       binary.LittleEndian.Uint64(hdr[14:]),
			B:       binary.LittleEndian.Uint64(hdr[22:]),
			C:       binary.LittleEndian.Uint64(hdr[30:]),
			D:       binary.LittleEndian.Uint64(hdr[38:]),
		},
		seq: binary.LittleEndian.Uint64(hdr[seqOff:]),
		ack: binary.LittleEndian.Uint64(hdr[ackOff:]),
	}
	return f, int(total) - (frameHeader - 4), nil
}

// frame is a decoded message plus its link sequence number (0 for
// control frames) and the cumulative ack it carries for the reverse
// link.
type frame struct {
	msg amnet.Msg
	seq uint64
	ack uint64
}
