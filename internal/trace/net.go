package trace

import "sync/atomic"

// MaxHandlers bounds the per-handler receive breakdown; it matches the
// network fabric's handler-table size (amnet.MaxHandlers is defined as
// this constant).
const MaxHandlers = 256

// FaultKind names one class of injected transport fault (see package
// faultnet). The kinds index FaultCounts.
type FaultKind uint8

// The injected fault kinds.
const (
	// FaultDelay: a message's wire transit was stretched by the
	// configured delay/jitter.
	FaultDelay FaultKind = iota
	// FaultReorder: the message was held back so a later message on the
	// same link could overtake it on the wire.
	FaultReorder
	// FaultDrop: the first transmission was lost; a bounded redelivery
	// was scheduled.
	FaultDrop
	// FaultPartition: the message was sent into a transient partition
	// window and held until after the window healed.
	FaultPartition
	// FaultSlow: delivery was stretched by slow-receiver backpressure.
	FaultSlow
	NumFaultKinds
)

var faultNames = [NumFaultKinds]string{
	"delay", "reorder", "drop", "partition", "slow",
}

func (k FaultKind) String() string {
	if k < NumFaultKinds {
		return faultNames[k]
	}
	return "invalid_fault"
}

// FaultCounts is a plain-value vector of injected-fault counts,
// indexable by FaultKind.
type FaultCounts [NumFaultKinds]uint64

// Get returns the count for kind k.
func (c FaultCounts) Get(k FaultKind) uint64 {
	if k < NumFaultKinds {
		return c[k]
	}
	return 0
}

// Total returns the sum over all fault kinds.
func (c FaultCounts) Total() uint64 {
	var t uint64
	for _, v := range c {
		t += v
	}
	return t
}

// Add returns the element-wise sum of two count vectors.
func (c FaultCounts) Add(o FaultCounts) FaultCounts {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// NetStats is one network endpoint's traffic telemetry: message and byte
// counters for both directions, a per-handler receive breakdown, and a
// sampled send→deliver latency histogram. All updates are atomic; the
// struct may be read while the network is live, but a consistent
// snapshot requires the network to be quiescent (for example, inside a
// barrier).
type NetStats struct {
	MsgsSent  atomic.Uint64
	BytesSent atomic.Uint64
	MsgsRecv  atomic.Uint64
	BytesRecv atomic.Uint64

	// Flushes counts write-coalescing flushes on transports that batch
	// frames into buffered writes (one flush hands one batch to the
	// kernel). MsgsSent/Flushes is the mean coalescing factor; the
	// per-message counters above stay exact regardless of batching.
	Flushes atomic.Uint64

	// PerHandler counts messages received per handler id.
	PerHandler [MaxHandlers]atomic.Uint64

	// Reconnects counts connection re-establishments on transports with
	// connection supervision; Backoffs counts the backoff sleeps taken
	// while reconnecting (Backoffs ≥ Reconnects when dials fail).
	Reconnects atomic.Uint64
	Backoffs   atomic.Uint64
	// Retransmits counts journal frames re-sent after a reconnect, and
	// DupFramesDropped the frames the receive-side sequence dedup
	// discarded (retransmitted frames that had already arrived).
	Retransmits      atomic.Uint64
	DupFramesDropped atomic.Uint64

	// Faults counts injected transport faults per kind on endpoints
	// wrapped by a fault-injecting transport (package faultnet).
	Faults [NumFaultKinds]atomic.Uint64

	// Send-queue telemetry on transports with bounded per-connection
	// send queues (the supervised TCP transport's unacked journal).
	// SendQueueDepth is a live gauge of frames currently queued across
	// this endpoint's connections; SendQueueHighWater the deepest any
	// single connection's queue has been; SendQueueStalls counts
	// enqueues that blocked because a connection's queue was full — the
	// backpressure a gateway tier must observe instead of silently
	// hanging behind it.
	SendQueueDepth     atomic.Int64
	SendQueueHighWater atomic.Uint64
	SendQueueStalls    atomic.Uint64

	sampling atomic.Bool
	deliver  hist
}

// AddSendQueueDepth moves the live send-queue gauge by delta (positive
// on enqueue, negative when acks or a teardown release frames).
func (s *NetStats) AddSendQueueDepth(delta int) {
	s.SendQueueDepth.Add(int64(delta))
}

// ObserveSendQueue folds one connection's current queue depth into the
// high-water mark.
func (s *NetStats) ObserveSendQueue(depth int) {
	d := uint64(depth)
	for {
		cur := s.SendQueueHighWater.Load()
		if d <= cur || s.SendQueueHighWater.CompareAndSwap(cur, d) {
			return
		}
	}
}

// CountSendQueueStall records one enqueue that blocked on a full
// per-connection send queue.
func (s *NetStats) CountSendQueueStall() { s.SendQueueStalls.Add(1) }

// CountFault records one injected fault of the given kind.
func (s *NetStats) CountFault(k FaultKind) {
	if k < NumFaultKinds {
		s.Faults[k].Add(1)
	}
}

// CountSend records one sent message of the given wire footprint.
func (s *NetStats) CountSend(wire int) {
	s.MsgsSent.Add(1)
	s.BytesSent.Add(uint64(wire))
}

// CountRecv records one received message of the given wire footprint,
// destined for the given handler.
func (s *NetStats) CountRecv(handler uint16, wire int) {
	s.MsgsRecv.Add(1)
	s.BytesRecv.Add(uint64(wire))
	if int(handler) < MaxHandlers {
		s.PerHandler[handler].Add(1)
	}
}

// CountFlush records one coalesced write of a batch of frames.
func (s *NetStats) CountFlush() { s.Flushes.Add(1) }

// EnableLatencySampling switches send→deliver latency sampling on or
// off. Off (the default) makes SendStamp free apart from one atomic
// load.
func (s *NetStats) EnableLatencySampling(on bool) { s.sampling.Store(on) }

// SendStamp returns a send timestamp to attach to an outgoing message,
// or 0 when latency sampling is disabled. Transports carry the stamp to
// the destination and hand it to the receiving endpoint's
// ObserveDeliver.
func (s *NetStats) SendStamp() int64 {
	if !s.sampling.Load() {
		return 0
	}
	return Now()
}

// ObserveDeliver records the send→deliver latency of a message stamped
// with sentNS at its source. A zero stamp (sampling disabled at send
// time) is ignored. Timestamps are on the process-local trace clock, so
// the measurement is meaningful for in-process transports (the channel
// network and the loopback TCP network).
func (s *NetStats) ObserveDeliver(sentNS int64) {
	if sentNS == 0 {
		return
	}
	s.deliver.observe(Now() - sentNS)
}

// Snapshot returns the current counter values.
func (s *NetStats) Snapshot() NetSnapshot {
	snap := NetSnapshot{
		MsgsSent:         s.MsgsSent.Load(),
		BytesSent:        s.BytesSent.Load(),
		MsgsRecv:         s.MsgsRecv.Load(),
		BytesRecv:        s.BytesRecv.Load(),
		Flushes:          s.Flushes.Load(),
		Reconnects:       s.Reconnects.Load(),
		Backoffs:         s.Backoffs.Load(),
		Retransmits:      s.Retransmits.Load(),
		DupFramesDropped: s.DupFramesDropped.Load(),
		SendQueueDepth:   s.SendQueueDepth.Load(),
		SendQueueHW:      s.SendQueueHighWater.Load(),
		SendQueueStalls:  s.SendQueueStalls.Load(),
		Deliver:          s.deliver.snapshot(),
	}
	for i := range snap.Faults {
		snap.Faults[i] = s.Faults[i].Load()
	}
	return snap
}

// NetSnapshot is a plain-value copy of NetStats suitable for arithmetic.
type NetSnapshot struct {
	MsgsSent, BytesSent uint64
	MsgsRecv, BytesRecv uint64
	Flushes             uint64

	// Connection-supervision counters (transports with reconnect).
	Reconnects, Backoffs          uint64
	Retransmits, DupFramesDropped uint64

	// Send-queue telemetry (transports with bounded per-connection send
	// queues). SendQueueDepth and SendQueueHW are gauges: Add takes the
	// sum of depths but the max of high-waters.
	SendQueueDepth  int64
	SendQueueHW     uint64
	SendQueueStalls uint64

	// Faults counts injected transport faults per kind (package
	// faultnet); all zero on unwrapped transports.
	Faults FaultCounts

	// Deliver is the sampled send→deliver latency distribution of
	// messages received by this endpoint.
	Deliver Histogram
}

// Add returns the element-wise sum s + o.
func (s NetSnapshot) Add(o NetSnapshot) NetSnapshot {
	return NetSnapshot{
		MsgsSent:         s.MsgsSent + o.MsgsSent,
		BytesSent:        s.BytesSent + o.BytesSent,
		MsgsRecv:         s.MsgsRecv + o.MsgsRecv,
		BytesRecv:        s.BytesRecv + o.BytesRecv,
		Flushes:          s.Flushes + o.Flushes,
		Reconnects:       s.Reconnects + o.Reconnects,
		Backoffs:         s.Backoffs + o.Backoffs,
		Retransmits:      s.Retransmits + o.Retransmits,
		DupFramesDropped: s.DupFramesDropped + o.DupFramesDropped,
		SendQueueDepth:   s.SendQueueDepth + o.SendQueueDepth,
		SendQueueHW:      max(s.SendQueueHW, o.SendQueueHW),
		SendQueueStalls:  s.SendQueueStalls + o.SendQueueStalls,
		Faults:           s.Faults.Add(o.Faults),
		Deliver:          s.Deliver.Add(o.Deliver),
	}
}
