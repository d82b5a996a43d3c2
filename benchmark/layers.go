package main

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/gateway"
	"github.com/acedsm/ace/internal/tcpnet"
	"github.com/acedsm/ace/proto"
)

// counters are the layer counters read around the traced repetitions. A
// counter of a layer that is not on a workload's path reads 0 there:
// gateway.* on em3d.*, and proto.* and core.* on gate.*, whose cluster a
// Gateway does not expose.
var counters = []struct{ name, unit string }{
	{"proto.msgs_per_step", "count"}, {"proto.remote_miss_per_step", "count"},
	{"core.brackets_per_step", "count"}, {"core.fast_hit_ratio", "ratio"},
	{"gateway.frames_out_per_op", "count"}, {"gateway.dropped_frac", "ratio"},
	{"gateway.op_queue_high_water", "count"}, {"gateway.send_queue_high_water", "count"},
}

// probeReps is how many times each probe's timed loop runs; the median is
// reported.
const probeReps = 5

// Handler ids of the fabric probes, clear of the runtime's reserved range.
const (
	hPing amnet.HandlerID = 40
	hPong amnet.HandlerID = 41
	hSink amnet.HandlerID = 42
)

// prober runs the layer probes: each is a timed loop around public calls
// of one module, from at most as many goroutines as the host has CPUs.
type prober struct {
	scale  int // divides every loop count; 1 at full scale
	sl     *spanLog
	parent int
	out    map[string]Metric
	err    error
}

// timed runs loop probeReps times, each inside a span, and returns the
// median duration of one of its calls in nanoseconds.
func (pb *prober) timed(name string, calls int, loop func(calls int) (time.Duration, error)) float64 {
	if pb.err != nil {
		return 0
	}
	per := make([]float64, 0, probeReps)
	for i := 0; i < probeReps; i++ {
		s := pb.sl.begin("probe "+name, pb.parent)
		el, err := loop(calls)
		pb.sl.endCalls(s, int64(calls))
		if err != nil {
			pb.err = fmt.Errorf("%s: %w", name, err)
			return 0
		}
		per = append(per, float64(el)/float64(calls))
	}
	return median(per)
}

func (pb *prober) n(full int) int {
	if n := full / pb.scale; n > 10 {
		return n
	}
	return 10
}

// runProbes measures every layer once and returns the per-layer metrics
// that do not depend on the workload.
func runProbes(o options, sl *spanLog, parent int) (map[string]Metric, error) {
	pb := &prober{scale: 1, sl: sl, parent: sl.begin("layers", parent), out: map[string]Metric{}}
	if o.smoke {
		pb.scale = 50
	}
	pb.gatewayFrames()
	pb.gatewayDialJoin()
	pb.coreBrackets()
	pb.coreCollectives()
	pb.fabric("amnet.chan", func() (amnet.Network, error) { return amnet.NewChanNetwork(amnet.ChanConfig{Nodes: 2}) })
	pb.fabric("tcpnet", func() (amnet.Network, error) { return tcpnet.New(tcpnet.Loopback(2)) })
	pb.allocRecycle()
	sl.end(pb.parent)
	return pb.out, pb.err
}

var sinkFrame gateway.Frame
var sinkBytes []byte

// gatewayFrames times the wire codec on the two frames of the add path:
// the OpAdd a client sends and the EvDelta every member gets back.
func (pb *prober) gatewayFrames() {
	add, err := gateway.EncodeFrame(gateway.Frame{Kind: gateway.OpAdd, Room: "solo-1-0", Cell: 1, Value: 1})
	if err != nil {
		pb.err = err
		return
	}
	delta := gateway.Frame{Kind: gateway.EvDelta, Room: "solo-1-0", Cell: 1, Value: 12345}
	ns := pb.timed("gateway.DecodeFrame", pb.n(500_000), func(n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			sinkFrame, _ = gateway.DecodeFrame(add)
		}
		return time.Since(start), nil
	})
	pb.out["gateway.decode_ns"] = Metric{ns, "ns"}
	var allocs float64
	ns = pb.timed("gateway.EncodeFrame", pb.n(200_000), func(n int) (time.Duration, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			sinkBytes, _ = gateway.EncodeFrame(delta)
		}
		el := time.Since(start)
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / float64(n)
		return el, nil
	})
	pb.out["gateway.encode_ns"] = Metric{ns, "ns"}
	pb.out["gateway.encode_allocs"] = Metric{allocs, "count"}
}

// gatewayDialJoin times a client's connection set-up: DialClient plus Join
// of a room that already exists.
func (pb *prober) gatewayDialJoin() {
	if pb.err != nil {
		return
	}
	g, err := gateway.New(gateway.Config{Procs: gateProcs, Protocol: "sc"})
	if err != nil {
		pb.err = err
		return
	}
	defer g.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		pb.err = err
		return
	}
	srv := g.Serve(ln)
	defer srv.Close()
	holder, err := gateway.DialClient(srv.Addr())
	if err != nil {
		pb.err = err
		return
	}
	defer holder.Close()
	if _, _, err := holder.Join("lobby"); err != nil {
		pb.err = err
		return
	}
	ns := pb.timed("gateway.DialClient+Join", pb.n(200), func(n int) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < n; i++ {
			start := time.Now()
			c, err := gateway.DialClient(srv.Addr())
			if err != nil {
				return 0, err
			}
			_, _, err = c.Join("lobby")
			total += time.Since(start)
			c.Close()
			if err != nil {
				return 0, err
			}
		}
		return total, nil
	})
	pb.out["gateway.dial_join_us"] = Metric{ns / 1e3, "us"}
}

// cluster runs fn as an SPMD program on a fresh cluster of procs
// processors over the channel network.
func cluster(procs int, fn func(p *core.Proc) error) error {
	cl, err := core.NewCluster(core.Options{Procs: procs, Registry: proto.NewRegistry()})
	if err != nil {
		return err
	}
	err = cl.Run(fn)
	if cerr := cl.Close(); err == nil {
		err = cerr
	}
	return err
}

// coreBrackets times the bracket pairs: hits on a home-local region under
// sc, and a read that pays a full home round trip because the reader drops
// its clean copy after every section.
func (pb *prober) coreBrackets() {
	if pb.err != nil {
		return
	}
	err := cluster(1, func(p *core.Proc) error {
		r := p.Map(p.GMalloc(p.DefaultSpace(), 64))
		ns := pb.timed("core.StartRead/EndRead hit", pb.n(1_000_000), func(n int) (time.Duration, error) {
			start := time.Now()
			for i := 0; i < n; i++ {
				p.StartRead(r)
				p.EndRead(r)
			}
			return time.Since(start), nil
		})
		pb.out["core.hit_read_ns"] = Metric{ns, "ns"}
		ns = pb.timed("core.StartWrite/EndWrite hit", pb.n(1_000_000), func(n int) (time.Duration, error) {
			start := time.Now()
			for i := 0; i < n; i++ {
				p.StartWrite(r)
				p.EndWrite(r)
			}
			return time.Since(start), nil
		})
		pb.out["core.hit_write_ns"] = Metric{ns, "ns"}
		return nil
	})
	if err != nil && pb.err == nil {
		pb.err = err
	}
	calls := pb.n(20_000)
	err = cluster(2, func(p *core.Proc) error {
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 64)
		}
		id = p.BroadcastID(0, id)
		if p.ID() == 0 {
			p.GlobalBarrier()
			return nil
		}
		r := p.Map(id)
		ns := pb.timed("core.StartRead/EndRead miss", calls, func(n int) (time.Duration, error) {
			start := time.Now()
			for i := 0; i < n; i++ {
				p.StartRead(r)
				p.EndRead(r)
				if !p.DropCopy(r) {
					return 0, fmt.Errorf("clean copy not droppable")
				}
			}
			return time.Since(start), nil
		})
		pb.out["core.miss_read_us"] = Metric{ns / 1e3, "us"}
		p.GlobalBarrier()
		return nil
	})
	if err != nil && pb.err == nil {
		pb.err = err
	}
}

// coreCollectives times, at four processors, a space barrier, a
// ChangeProtocol round trip and the collective life of a space as the
// gateway drives it for a room: NewSpace, GMallocE at the home, the id
// broadcast, FreeSpace. Processor 0 keeps the time; every processor makes
// the same calls.
func (pb *prober) coreCollectives() {
	if pb.err != nil {
		return
	}
	barriers, switches, cycles := pb.n(10_000), pb.n(1_000), pb.n(1_000)
	err := cluster(em3dProcs, func(p *core.Proc) error {
		// collective runs loop on every processor; only processor 0's
		// timing is recorded, inside a span.
		collective := func(name, metric string, calls int, loop func() error) error {
			run := func(n int) (time.Duration, error) {
				p.GlobalBarrier()
				start := time.Now()
				for i := 0; i < n; i++ {
					if err := loop(); err != nil {
						return 0, err
					}
				}
				return time.Since(start), nil
			}
			if p.ID() != 0 {
				for i := 0; i < probeReps; i++ {
					if _, err := run(calls); err != nil {
						return err
					}
				}
				return nil
			}
			pb.out[metric] = Metric{pb.timed(name, calls, run) / 1e3, "us"}
			return nil
		}
		sp, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		if err := collective("core.Barrier", "core.barrier_us", barriers, func() error {
			p.Barrier(sp)
			return nil
		}); err != nil {
			return err
		}
		next := "update"
		if err := collective("core.ChangeProtocol", "core.change_protocol_us", switches, func() error {
			err := p.ChangeProtocol(sp, next)
			if next == "update" {
				next = "sc"
			} else {
				next = "update"
			}
			return err
		}); err != nil {
			return err
		}
		return collective("core.NewSpace+GMallocE+FreeSpace", "core.space_cycle_us", cycles, func() error {
			room, err := p.NewSpace("sc")
			if err != nil {
				return err
			}
			var id core.RegionID
			if p.ID() == 0 {
				if id, err = p.GMallocE(room, gateway.RoomStateBytes); err != nil {
					return err
				}
			}
			p.BroadcastID(0, id)
			return p.FreeSpace(room)
		})
	})
	if err != nil && pb.err == nil {
		pb.err = err
	}
}

// payloadFor returns the payload supplier the fabric's ownership contract
// asks for: one reused buffer where Send copies, a pooled buffer per send
// where it keeps the reference (the receiving handler recycles it).
func payloadFor(ep amnet.Endpoint, size int) func() []byte {
	if pc, ok := ep.(amnet.PayloadCopier); ok && pc.CopiesPayloadOnSend() {
		buf := make([]byte, size)
		return func() []byte { return buf }
	}
	return func() []byte { return amnet.Alloc(size) }
}

// fabric times a two-endpoint network of one transport: the ping-pong
// round trip of a 16-byte message and a one-way stream of them, and on
// tcpnet also a stream of 16 KB messages and the writer's coalescing.
func (pb *prober) fabric(layer string, mk func() (amnet.Network, error)) {
	if pb.err != nil {
		return
	}
	tcp := layer == "tcpnet"
	var flushes, msgs, retransmits uint64
	// on runs loop on a fresh network, which is how handlers are bound to
	// one measurement's state.
	on := func(loop func(eps []amnet.Endpoint, n int) (time.Duration, error)) func(int) (time.Duration, error) {
		return func(n int) (time.Duration, error) {
			nw, err := mk()
			if err != nil {
				return 0, err
			}
			defer nw.Close()
			eps := nw.Endpoints()
			el, err := loop(eps, n)
			for _, ep := range eps {
				retransmits += ep.Stats().Retransmits.Load()
			}
			return el, err
		}
	}
	rtt := pb.timed(layer+" ping-pong 16B", pb.n(5_000), on(func(eps []amnet.Endpoint, n int) (time.Duration, error) {
		done := make(chan struct{})
		data := payloadFor(eps[0], 16)
		eps[1].Register(hPing, func(m amnet.Msg) {
			amnet.Recycle(m.Payload)
			eps[1].Send(amnet.Msg{Dst: 0, Handler: hPong, A: m.A})
		})
		eps[0].Register(hPong, func(m amnet.Msg) {
			if int(m.A) == n {
				close(done)
				return
			}
			eps[0].Send(amnet.Msg{Dst: 1, Handler: hPing, A: m.A + 1, Payload: data()})
		})
		start := time.Now()
		eps[0].Send(amnet.Msg{Dst: 1, Handler: hPing, A: 1, Payload: data()})
		return awaitProbe(done, start)
	}))
	stream := func(size int) func(eps []amnet.Endpoint, n int) (time.Duration, error) {
		return func(eps []amnet.Endpoint, n int) (time.Duration, error) {
			done := make(chan struct{})
			var seen atomic.Int64
			eps[0].Register(hSink, func(m amnet.Msg) {
				amnet.Recycle(m.Payload)
				if seen.Add(1) == int64(n) {
					close(done)
				}
			})
			data := payloadFor(eps[1], size)
			start := time.Now()
			for i := 0; i < n; i++ {
				eps[1].Send(amnet.Msg{Dst: 0, Handler: hSink, A: uint64(i), Payload: data()})
			}
			el, err := awaitProbe(done, start)
			flushes += eps[1].Stats().Flushes.Load()
			msgs += eps[1].Stats().MsgsSent.Load()
			return el, err
		}
	}
	small := pb.timed(layer+" stream 16B", pb.n(100_000), on(stream(16)))
	if !tcp {
		pb.out["amnet.chan_rtt_ns"] = Metric{rtt, "ns"}
		pb.out["amnet.chan_stream_msgs_per_s"] = Metric{1e9 / small, "1/s"}
		return
	}
	pb.out["tcpnet.rtt_us"] = Metric{rtt / 1e3, "us"}
	pb.out["tcpnet.stream_msgs_per_s"] = Metric{1e9 / small, "1/s"}
	if flushes > 0 {
		pb.out["tcpnet.msgs_per_flush"] = Metric{float64(msgs) / float64(flushes), "count"}
	}
	const big = 16 << 10
	large := pb.timed(layer+" stream 16KB", pb.n(10_000), on(stream(big)))
	pb.out["tcpnet.stream_mb_per_s"] = Metric{big / large * 1e9 / 1e6, "MB/s"}
	pb.out["tcpnet.retransmits"] = Metric{float64(retransmits), "count"}
}

func awaitProbe(done <-chan struct{}, start time.Time) (time.Duration, error) {
	select {
	case <-done:
		return time.Since(start), nil
	case <-time.After(time.Minute):
		return 0, fmt.Errorf("stalled")
	}
}

// allocRecycle times the fabric's buffer pool on the 16-byte class.
func (pb *prober) allocRecycle() {
	ns := pb.timed("amnet.Alloc+Recycle", pb.n(1_000_000), func(n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			amnet.Recycle(amnet.Alloc(16))
		}
		return time.Since(start), nil
	})
	pb.out["amnet.alloc_recycle_ns"] = Metric{ns, "ns"}
}
