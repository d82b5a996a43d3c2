package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/acedsm/ace/internal/gateway"
)

type gateKind int

const (
	// gatePipelined: every client in one shared room, 16 adds in flight.
	gatePipelined gateKind = iota
	// gatePingpong: every client alone in its own room, one op in flight,
	// adds and gets mixed evenly from the seed.
	gatePingpong
	// gateChurn: every client loops join a fresh room, add, await the
	// delta, leave.
	gateChurn
)

const (
	gateProcs = 4
	// pipelinedWindow is how many adds a gate.pipelined client keeps in
	// flight.
	pipelinedWindow = 16
	// pipelinedSendQueue replaces the default send queue of 64 frames on
	// gate.pipelined. Members of a shared room progress independently, so
	// with the default one member's deltas overrun the other's queue within
	// about a thousand ops and the gateway closes it as a slow client. Even
	// 1024 frames overflow now and then (59 drops in 1.3 M ops, measured):
	// at 120 k ops/s a session writer the scheduler holds back for 10 ms is
	// 1,200 frames behind. The workload measures the runtime, not the
	// slow-client policy, so the queue covers a stall of 100 ms.
	pipelinedSendQueue = 16384
	// spanEvery is the sampling of per-op spans in a traced repetition.
	spanEvery = 64
	// graceAfterWindow bounds how long a client waits for outstanding
	// acknowledgements once the window has closed; ops still unacknowledged
	// then count as failed.
	graceAfterWindow = 10 * time.Second
)

// gateClients is the number of driver connections: one per CPU the
// benchmark may use, so the load generator never oversubscribes the host,
// and no more than a room has cells, since each client owns one cell.
func gateClients() int {
	n := runtime.GOMAXPROCS(0)
	if n > gateway.RoomCells {
		n = gateway.RoomCells
	}
	return n
}

// pendingOp is one op sent and not yet acknowledged.
type pendingOp struct {
	get    bool
	addIdx int64 // for an add, the value its cell holds once it is applied
	sent   time.Time
	opSpan int
	wait   int
}

// gateClient drives one connection from one goroutine. It adds +1 to its
// own cell only, so the largest EvDelta value seen for that cell is the
// number of its adds the server has applied, however deltas may be
// coalesced in future.
type gateClient struct {
	id     int
	c      *gateway.Client
	room   string
	cell   int
	window int
	rng    *rand.Rand // non-nil: draw add or get evenly

	adds, sent, acked int64
	inWindow          int64     // acknowledged inside [t0, t1]
	rtts              []float64 // µs, of ops acknowledged inside [t0, t1]
	err               error     // transport error or wrong output
}

func (c *gateClient) ack(p pendingOp, now, t0, t1 time.Time, sl *spanLog) {
	c.acked++
	if !now.Before(t0) && !now.After(t1) {
		c.inWindow++
		c.rtts = append(c.rtts, float64(now.Sub(p.sent))/1e3)
	}
	sl.end(p.wait)
	sl.end(p.opSpan)
}

// run keeps window ops in flight until t1 and then waits for the
// outstanding acknowledgements. sl is nil unless the repetition is traced.
func (c *gateClient) run(t0, t1 time.Time, sl *spanLog, parent int) {
	ring := make([]pendingOp, c.window)
	head, n := 0, 0
	for {
		if time.Now().Before(t1) {
			for n < c.window {
				p := pendingOp{get: c.rng != nil && c.rng.Intn(2) == 0}
				f := gateway.Frame{Kind: gateway.OpGet, Room: c.room}
				if !p.get {
					c.adds++
					p.addIdx = c.adds
					f = gateway.Frame{Kind: gateway.OpAdd, Room: c.room, Cell: c.cell, Value: 1}
				}
				var write int
				if sl != nil && c.sent%spanEvery == 0 {
					op := int64(c.id)<<40 | c.sent
					p.opSpan = sl.beginOp("op", parent, op)
					write = sl.beginOp("client.write", p.opSpan, op)
				}
				p.sent = time.Now()
				if err := c.c.Send(f); err != nil {
					c.err = err
					return
				}
				c.sent++
				if p.opSpan != 0 {
					sl.end(write)
					p.wait = sl.beginOp("wait", p.opSpan, int64(c.id)<<40|(c.sent-1))
				}
				ring[(head+n)%c.window] = p
				n++
			}
		} else if n == 0 {
			return
		}
		f, err := c.c.Recv()
		if err != nil {
			c.err = err
			return
		}
		now := time.Now()
		switch {
		case f.Kind == gateway.EvDelta && f.Cell == c.cell:
			for n > 0 && !ring[head].get && ring[head].addIdx <= f.Value {
				c.ack(ring[head], now, t0, t1, sl)
				head, n = (head+1)%c.window, n-1
			}
		case f.Kind == gateway.EvState && n > 0 && ring[head].get:
			// Gets are drawn only with one op in flight, so every add sent
			// has been applied when the state is read.
			if f.State[c.cell] != c.adds {
				c.err = fmt.Errorf("client %d: get returned %d in its cell after %d adds", c.id, f.State[c.cell], c.adds)
				return
			}
			c.ack(ring[head], now, t0, t1, sl)
			head, n = (head+1)%c.window, n-1
		case f.Kind == gateway.EvError:
			c.err = fmt.Errorf("client %d: server error: %s", c.id, f.Msg)
			return
		}
	}
}

// verify reads the room back: the client's cell must hold the closed-form
// sum of its adds, between those acknowledged and those sent (equal when
// nothing failed).
func (c *gateClient) verify() error {
	state, err := c.c.Get(c.room)
	if err != nil {
		return err
	}
	ackedAdds := c.adds - (c.sent - c.acked) // unacknowledged ops are the newest
	if got := state[c.cell]; got < ackedAdds || got > c.adds {
		return fmt.Errorf("client %d: cell holds %d, want between %d acknowledged and %d sent adds", c.id, got, ackedAdds, c.adds)
	}
	return nil
}

// churn loops join→add→delta→leave on fresh room names until t1, then
// makes one more cycle that also reads the room back.
func (c *gateClient) churn(seed int64, t0, t1 time.Time, sl *spanLog, parent int) {
	cycle := func(k int64, last bool) error {
		room := fmt.Sprintf("churn-%d-%d-%d", seed, c.id, k)
		op := int64(c.id)<<40 | k
		cs := sl.beginOp("cycle", parent, op)
		defer sl.end(cs)
		step := sl.beginOp("join", cs, op)
		if _, _, err := c.c.Join(room); err != nil {
			return err
		}
		sl.end(step)
		step = sl.beginOp("add", cs, op)
		if err := c.c.Add(room, c.cell, 1); err != nil {
			return err
		}
		f, err := c.c.WaitFor(gateway.EvDelta, room)
		if err != nil {
			return err
		}
		sl.end(step)
		if f.Cell != c.cell || f.Value != 1 {
			return fmt.Errorf("client %d: fresh room %s answered cell %d = %d, want cell %d = 1", c.id, room, f.Cell, f.Value, c.cell)
		}
		if last {
			state, err := c.c.Get(room)
			if err != nil {
				return err
			}
			for i, v := range state {
				want := int64(0)
				if i == c.cell {
					want = 1
				}
				if v != want {
					return fmt.Errorf("client %d: fresh room %s holds %d in cell %d, want %d", c.id, room, v, i, want)
				}
			}
		}
		step = sl.beginOp("leave", cs, op)
		defer sl.end(step)
		return c.c.Leave(room)
	}
	for k := int64(0); ; k++ {
		start := time.Now()
		last := !start.Before(t1)
		c.sent++
		if c.err = cycle(k, last); c.err != nil {
			return
		}
		c.acked++
		if now := time.Now(); !start.Before(t0) && !now.After(t1) {
			c.inWindow++
			c.rtts = append(c.rtts, float64(now.Sub(start))/1e3)
		}
		if last {
			return
		}
	}
}

func gateWorkload(name string, kind gateKind) workload {
	return workload{
		name: name,
		// No check ahead of the repetitions: a gateway's output is checked
		// at the end of every one, against what its clients sent.
		rep: func(o options, window time.Duration, traced bool, sl *spanLog, parent int) (repResult, error) {
			if !traced {
				sl = nil
			}
			return gateRep(kind, o, window, sl, parent)
		},
	}
}

// warmup is the untimed load ahead of a window, which lets connections,
// queues and the garbage collector settle.
func warmup(window time.Duration) time.Duration { return window / 10 }

// gateRep is one repetition; everything outside its warm-up and timed
// window, teardown included, is set-up time.
func gateRep(kind gateKind, o options, window time.Duration, sl *spanLog, parent int) (repResult, error) {
	start := time.Now()
	r, err := gateServe(kind, o, window, sl, parent)
	r.setup = time.Since(start) - warmup(window) - window
	return r, err
}

// gateServe serves a fresh gateway on a loopback listener in this process,
// drives it with gateClients connections for one window, checks the
// rooms' contents and tears everything down.
func gateServe(kind gateKind, o options, window time.Duration, sl *spanLog, parent int) (r repResult, err error) {
	cfg := gateway.Config{Procs: gateProcs, Protocol: "sc"}
	if kind == gatePipelined {
		cfg.SendQueue = pipelinedSendQueue
	}
	g, err := gateway.New(cfg)
	if err != nil {
		return repResult{}, err
	}
	defer func() {
		if cerr := g.Close(); err == nil {
			err = cerr
		}
	}()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return repResult{}, err
	}
	srv := g.Serve(ln)
	defer srv.Close()
	slots0 := g.SpaceSlots()

	clients := make([]*gateClient, gateClients())
	for i := range clients {
		conn, err := gateway.DialClient(srv.Addr())
		if err != nil {
			return repResult{}, err
		}
		defer conn.Close()
		c := &gateClient{id: i, c: conn, cell: int((uint64(o.seed) + uint64(i)) % gateway.RoomCells), window: 1}
		switch kind {
		case gatePipelined:
			c.room, c.window = fmt.Sprintf("shared-%d", o.seed), pipelinedWindow
		case gatePingpong:
			c.room = fmt.Sprintf("solo-%d-%d", o.seed, i)
			c.rng = rand.New(rand.NewSource(o.seed*1_000_003 + int64(i)))
		}
		if kind != gateChurn {
			if _, _, err := conn.Join(c.room); err != nil {
				return repResult{}, err
			}
		}
		clients[i] = c
	}

	t0 := time.Now().Add(warmup(window))
	t1 := t0.Add(window)
	var wg sync.WaitGroup
	for _, c := range clients {
		c.c.SetDeadline(t1.Add(graceAfterWindow))
		wg.Add(1)
		go func(c *gateClient) {
			defer wg.Done()
			if kind == gateChurn {
				c.churn(o.seed, t0, t1, sl, parent)
			} else {
				c.run(t0, t1, sl, parent)
			}
		}(c)
	}
	time.Sleep(time.Until(t0))
	before := g.Stats().Snapshot()
	time.Sleep(time.Until(t1))
	after := g.Stats().Snapshot()
	wg.Wait()

	r = repResult{window: window, counters: map[string]float64{}}
	var rtts []float64
	for _, c := range clients {
		if c.err == nil && kind != gateChurn {
			c.err = c.verify()
		}
		if c.err != nil {
			if ne, ok := c.err.(net.Error); !ok || !ne.Timeout() {
				return repResult{}, c.err
			}
			// A timeout leaves ops unacknowledged: counted below as failed.
		}
		r.units += c.inWindow
		r.sent += c.sent
		r.failed += c.sent - c.acked
		rtts = append(rtts, c.rtts...)
	}
	sort.Float64s(rtts)
	r.latP50, r.latP99, r.samples = percentile(rtts, 0.50), percentile(rtts, 0.99), len(rtts)

	if kind == gateChurn {
		// Every room was left, so every space must be gone and the space
		// table no longer than it was, give or take the rooms that were
		// live at once.
		deadline := time.Now().Add(time.Second)
		for g.Stats().RoomsCreated.Load() != g.Stats().RoomsDestroyed.Load() && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if c, d := g.Stats().RoomsCreated.Load(), g.Stats().RoomsDestroyed.Load(); c != d {
			return repResult{}, fmt.Errorf("%d rooms created, %d destroyed", c, d)
		}
		if slots := g.SpaceSlots(); slots > slots0+len(clients) {
			return repResult{}, fmt.Errorf("space table grew from %d to %d slots with %d clients", slots0, slots, len(clients))
		}
	}

	end := g.Stats().Snapshot()
	if shed := end.OpsDropped + end.SendQueueDrops + end.SlowClients; r.failed > 0 || shed > 0 {
		fmt.Fprintf(os.Stderr, "gate: %d ops unacknowledged, %d ops dropped, %d frames dropped from send queues, %d sessions closed as slow\n",
			r.failed, end.OpsDropped, end.SendQueueDrops, end.SlowClients)
		r.failed += int64(shed)
	}
	if applied := after.OpsApplied - before.OpsApplied; applied > 0 {
		r.counters["gateway.frames_out_per_op"] = float64(after.FramesOut-before.FramesOut) / float64(applied)
	}
	if in := after.FramesIn - before.FramesIn; in > 0 {
		r.counters["gateway.dropped_frac"] = float64(after.OpsDropped-before.OpsDropped+after.SendQueueDrops-before.SendQueueDrops) / float64(in)
	}
	r.counters["gateway.op_queue_high_water"] = float64(end.OpQueueHighWater)
	r.counters["gateway.send_queue_high_water"] = float64(end.SendQueueHighWater)
	return r, nil
}
