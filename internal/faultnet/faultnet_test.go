package faultnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/trace"
)

// aggressive is a policy with every fault kind switched on, hot enough
// that a few hundred messages hit each kind.
func aggressive(seed int64) Policy {
	return Policy{
		Seed:        seed,
		Delay:       200 * time.Microsecond,
		Jitter:      300 * time.Microsecond,
		DropProb:    0.2,
		ReorderProb: 0.2,
		SlowNode:    1,
		SlowDelay:   100 * time.Microsecond,
	}
}

// TestFabricContractUnderFaults hammers every link of a wrapped channel
// network and checks the Active Messages contract survives the fault
// model: per-link FIFO, exactly-once delivery, nothing lost.
func TestFabricContractUnderFaults(t *testing.T) {
	const nodes, perLink = 3, 400
	inner, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: nodes})
	if err != nil {
		t.Fatal(err)
	}
	nw := Wrap(inner, aggressive(42))
	eps := nw.Endpoints()

	// next[dst][src] is the next expected A value on the src→dst link,
	// touched only by dst's pump goroutine.
	next := make([][]uint64, nodes)
	var bad atomic.Int64
	var recvd atomic.Int64
	for i, ep := range eps {
		next[i] = make([]uint64, nodes)
		i := i
		ep.Register(10, func(m amnet.Msg) {
			if m.A != next[i][m.Src] {
				bad.Add(1)
			}
			next[i][m.Src] = m.A + 1
			recvd.Add(1)
		})
	}
	var wg sync.WaitGroup
	for src := range eps {
		for dst := range eps {
			if src == dst {
				continue
			}
			wg.Add(1)
			go func(src, dst int) {
				defer wg.Done()
				for k := 0; k < perLink; k++ {
					eps[src].Send(amnet.Msg{Dst: amnet.NodeID(dst), Handler: 10, A: uint64(k)})
				}
			}(src, dst)
		}
	}
	wg.Wait()
	if err := nw.Close(); err != nil {
		t.Fatal(err)
	}
	want := int64(nodes * (nodes - 1) * perLink)
	if got := recvd.Load(); got != want {
		t.Fatalf("delivered %d messages, want %d", got, want)
	}
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d messages broke per-link FIFO/exactly-once", n)
	}
	var faults trace.FaultCounts
	for _, ep := range eps {
		faults = faults.Add(ep.Stats().Snapshot().Faults)
	}
	for _, k := range []trace.FaultKind{trace.FaultDelay, trace.FaultDrop, trace.FaultReorder, trace.FaultSlow} {
		if faults.Get(k) == 0 {
			t.Errorf("fault kind %v never injected (counts %v)", k, faults)
		}
	}
}

// TestSeededFaultStreamIsDeterministic sends the same single-threaded
// message sequence through two networks wrapped with the same seed and
// expects identical fault decisions (counter-for-counter).
func TestSeededFaultStreamIsDeterministic(t *testing.T) {
	run := func() trace.FaultCounts {
		inner, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: 2})
		if err != nil {
			t.Fatal(err)
		}
		nw := Wrap(inner, aggressive(7))
		eps := nw.Endpoints()
		eps[1].Register(10, func(m amnet.Msg) {})
		for k := 0; k < 500; k++ {
			eps[0].Send(amnet.Msg{Dst: 1, Handler: 10, A: uint64(k)})
		}
		if err := nw.Close(); err != nil {
			t.Fatal(err)
		}
		return eps[0].Stats().Snapshot().Faults
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different fault streams:\n  %v\n  %v", a, b)
	}
	if a.Total() == 0 {
		t.Fatal("no faults injected")
	}
}

// TestPartitionWindowStallsThenHeals: a message sent into an open
// partition window is held until the window heals, then delivered.
func TestPartitionWindowStallsThenHeals(t *testing.T) {
	const window = 30 * time.Millisecond
	inner, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	nw := Wrap(inner, Policy{
		Partitions: []Partition{{A: 0, B: 1, After: 0, For: window}},
	})
	defer nw.Close()
	eps := nw.Endpoints()
	done := make(chan time.Time, 1)
	eps[1].Register(10, func(m amnet.Msg) { done <- time.Now() })
	sent := time.Now()
	eps[0].Send(amnet.Msg{Dst: 1, Handler: 10})
	select {
	case at := <-done:
		if lag := at.Sub(sent); lag < window/2 {
			t.Fatalf("partitioned message arrived after %v, want ≥ %v", lag, window/2)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("partitioned message never delivered after heal")
	}
	if got := eps[0].Stats().Snapshot().Faults.Get(trace.FaultPartition); got != 1 {
		t.Fatalf("partition fault count = %d, want 1", got)
	}
}

// TestKillFiresPeerDownAndDropsTraffic: Kill notifies every endpoint
// once — survivors and the killed node itself, so its processor does
// not block forever on peers it can no longer reach — and discards
// traffic to the dead peer.
func TestKillFiresPeerDownAndDropsTraffic(t *testing.T) {
	inner, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	nw := Wrap(inner, Policy{})
	defer nw.Close()
	eps := nw.Endpoints()
	var downs atomic.Int32
	for _, ep := range eps {
		ep.(amnet.PeerAware).SetPeerDownHandler(func(peer amnet.NodeID) {
			if peer != 2 {
				t.Errorf("peer down for %d, want 2", peer)
			}
			downs.Add(1)
		})
	}
	var delivered atomic.Int32
	eps[2].Register(10, func(m amnet.Msg) { delivered.Add(1) })
	nw.Kill(2)
	nw.Kill(2) // idempotent
	if got := downs.Load(); got != 3 {
		t.Fatalf("peer-down fired %d times, want 3 (once per endpoint, killed node included)", got)
	}
	eps[0].Send(amnet.Msg{Dst: 2, Handler: 10})
	time.Sleep(20 * time.Millisecond)
	if got := delivered.Load(); got != 0 {
		t.Fatalf("dead peer received %d messages", got)
	}
}

// peerAwareEP decorates a channel-network endpoint with a controllable
// peer-down signal, standing in for a supervised transport (tcpnet).
type peerAwareEP struct {
	amnet.Endpoint
	mu sync.Mutex
	fn func(peer amnet.NodeID)
}

func (e *peerAwareEP) SetPeerDownHandler(fn func(peer amnet.NodeID)) {
	e.mu.Lock()
	e.fn = fn
	e.mu.Unlock()
}

func (e *peerAwareEP) down(peer amnet.NodeID) {
	e.mu.Lock()
	fn := e.fn
	e.mu.Unlock()
	if fn != nil {
		fn(peer)
	}
}

type peerAwareNet struct {
	amnet.Network
	eps []amnet.Endpoint
}

func (n *peerAwareNet) Endpoints() []amnet.Endpoint { return n.eps }

// TestWrapForwardsInnerPeerDown: wrapping a PeerAware transport must not
// disconnect its peer-down detection — the inner transport's
// notification reaches the handler registered on the wrapper, including
// one that fired before the handler was installed.
func TestWrapForwardsInnerPeerDown(t *testing.T) {
	chans, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	aware := make([]*peerAwareEP, 2)
	inner := &peerAwareNet{Network: chans, eps: make([]amnet.Endpoint, 2)}
	for i, ep := range chans.Endpoints() {
		aware[i] = &peerAwareEP{Endpoint: ep}
		inner.eps[i] = aware[i]
	}
	nw := Wrap(inner, Policy{})
	defer nw.Close()
	eps := nw.Endpoints()

	var got atomic.Int32
	got.Store(-1)
	eps[0].(amnet.PeerAware).SetPeerDownHandler(func(peer amnet.NodeID) {
		got.Store(int32(peer))
	})
	aware[0].down(1)
	if p := got.Load(); p != 1 {
		t.Fatalf("forwarded peer-down = %d, want 1", p)
	}

	// A notification raised before the wrapper handler exists is
	// buffered and replayed at registration.
	aware[1].down(0)
	var late atomic.Int32
	late.Store(-1)
	eps[1].(amnet.PeerAware).SetPeerDownHandler(func(peer amnet.NodeID) {
		late.Store(int32(peer))
	})
	if p := late.Load(); p != 0 {
		t.Fatalf("buffered peer-down = %d, want 0", p)
	}
}
