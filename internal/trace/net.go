package trace

import "sync/atomic"

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

// RecvPath names the goroutine a received message's handler ran on.
type RecvPath uint8

// The delivery paths.
const (
	// RecvDirect: the goroutine that handed the message over,
	// dispatching directly — a sender's on the channel fabric, a
	// connection reader's on tcpnet (see package amnet).
	RecvDirect RecvPath = iota
	// RecvPolled: the node's own application thread, polling its
	// mailbox before it parks in a wait.
	RecvPolled
	// RecvPumped: the node's pump goroutine.
	RecvPumped
	NumRecvPaths
)

// NetStats is one network endpoint's traffic telemetry: message and byte
// counters for both directions and a sampled send→deliver latency
// histogram. All updates are atomic; the struct may be read while the
// network is live, but a consistent snapshot requires the network to be
// quiescent (for example, inside a barrier).
type NetStats struct {
	MsgsSent  atomic.Uint64
	BytesSent atomic.Uint64
	// Recv counts received messages by delivery path; their sum is the
	// snapshot's MsgsRecv.
	Recv      [NumRecvPaths]atomic.Uint64
	BytesRecv atomic.Uint64

	// WaitsParked counts the runtime's synchronization waits that found
	// their reply still missing after polling and blocked.
	WaitsParked atomic.Uint64

	// Flushes counts write calls into the socket on transports that
	// batch frames into buffered writes. MsgsSent/Flushes is the mean
	// coalescing factor; the per-message counters above stay exact
	// regardless of batching.
	Flushes atomic.Uint64

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

	sampling atomic.Bool
	deliver  hist
}

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

// CountRecv records one message of the given wire footprint received
// along path.
func (s *NetStats) CountRecv(path RecvPath, wire int) {
	s.Recv[path].Add(1)
	s.BytesRecv.Add(uint64(wire))
}

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
		BytesRecv:        s.BytesRecv.Load(),
		WaitsParked:      s.WaitsParked.Load(),
		Flushes:          s.Flushes.Load(),
		Reconnects:       s.Reconnects.Load(),
		Backoffs:         s.Backoffs.Load(),
		Retransmits:      s.Retransmits.Load(),
		DupFramesDropped: s.DupFramesDropped.Load(),
		Deliver:          s.deliver.snapshot(),
	}
	for i := range snap.Faults {
		snap.Faults[i] = s.Faults[i].Load()
	}
	snap.RecvDirect = s.Recv[RecvDirect].Load()
	snap.RecvPolled = s.Recv[RecvPolled].Load()
	snap.RecvPumped = s.Recv[RecvPumped].Load()
	snap.MsgsRecv = snap.RecvDirect + snap.RecvPolled + snap.RecvPumped
	return snap
}

// NetSnapshot is a plain-value copy of NetStats suitable for arithmetic.
type NetSnapshot struct {
	MsgsSent, BytesSent uint64
	MsgsRecv, BytesRecv uint64
	Flushes             uint64

	// MsgsRecv by delivery path (see RecvPath): they sum to MsgsRecv.
	RecvDirect, RecvPolled, RecvPumped uint64
	// WaitsParked counts synchronization waits that blocked.
	WaitsParked uint64

	// Connection-supervision counters (transports with reconnect).
	Reconnects, Backoffs          uint64
	Retransmits, DupFramesDropped uint64

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
		RecvDirect:       s.RecvDirect + o.RecvDirect,
		RecvPolled:       s.RecvPolled + o.RecvPolled,
		RecvPumped:       s.RecvPumped + o.RecvPumped,
		WaitsParked:      s.WaitsParked + o.WaitsParked,
		Reconnects:       s.Reconnects + o.Reconnects,
		Backoffs:         s.Backoffs + o.Backoffs,
		Retransmits:      s.Retransmits + o.Retransmits,
		DupFramesDropped: s.DupFramesDropped + o.DupFramesDropped,
		Faults:           s.Faults.Add(o.Faults),
		Deliver:          s.Deliver.Add(o.Deliver),
	}
}
