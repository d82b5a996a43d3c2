// Package trace is the Ace runtime's unified observability layer: one
// subsystem holding the counters, latency histograms and event traces
// of every layer, from the protocol brackets to the transports.
//
// Three surfaces:
//
//   - Recorder: per-processor monotonic counters, always on, and
//     optional latency histograms for every protocol invocation point
//     (Map, Unmap, StartRead, ..., Barrier, Lock, Unlock), keyed by space
//     and protocol name. Its counters are the runtime's only operation
//     counters: the adaptive controller and the public snapshots read
//     the same ones.
//   - NetStats: per-endpoint message/byte counters and sampled
//     send→deliver latency.
//   - A bounded per-processor event ring exported as Chrome trace_event
//     JSON, so a whole run can be inspected in chrome://tracing or
//     Perfetto (see WriteChromeTrace).
//
// All hot-path entry points are allocation-free. Config chooses only
// what is recorded beyond the counts: an untimed End is one atomic
// counter add and no clock read; a timed one adds two clock reads and a
// histogram update. A caller that owns a space's operations on one
// goroutine can skip End for the untimed ones altogether: it tallies
// them in plain memory and adds the tally with Fold now and then (the
// runtime does this for bracket hits).
//
// Snapshots (Metrics, NetSnapshot, Histogram) are plain values safe to
// copy, compare and aggregate; live state (Recorder, NetStats) is
// updated with atomics and may be snapshotted concurrently with use.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Op names an instrumented runtime primitive: the eleven protocol
// invocation points of Figures 3-4 and Table 2, then FreeSpace.
type Op uint8

// The instrumented operations.
const (
	OpGMalloc Op = iota
	OpMap
	OpUnmap
	OpStartRead
	OpEndRead
	OpStartWrite
	OpEndWrite
	OpBarrier
	OpLock
	OpUnlock
	OpChangeProtocol
	OpFreeSpace
	NumOps
)

var opNames = [NumOps]string{
	"gmalloc", "map", "unmap", "start_read", "end_read",
	"start_write", "end_write", "barrier", "lock", "unlock",
	"change_protocol", "free_space",
}

func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return "invalid_op"
}

// Config selects what the observability layer records beyond the
// per-space operation and miss counters, which are always on. A nil
// *Config anywhere in the API means "count only".
type Config struct {
	// Metrics times every bracketed operation into per-space latency
	// histograms, and turns on send→deliver latency sampling on the
	// network endpoints.
	Metrics bool

	// Events, when positive, is the per-processor event ring capacity:
	// the last Events bracketed operations per processor are retained
	// and exported by WriteChromeTrace. Zero disables event tracing.
	// Event tracing implies metrics collection.
	Events int
}

// epoch anchors the package's monotonic clock. All trace timestamps are
// nanoseconds since process start, comparable across goroutines (and
// across the in-process network transports).
var epoch = time.Now()

// Now returns the current trace timestamp in nanoseconds.
func Now() int64 { return int64(time.Since(epoch)) }

// Event is one completed bracketed operation in the event ring.
type Event struct {
	// TS is the operation's start, in nanoseconds since the trace epoch.
	TS int64
	// Dur is the operation's duration in nanoseconds.
	Dur int64
	// Proc is the processor the operation ran on.
	Proc int32
	// Space is the space the operation addressed (-1 if none).
	Space int32
	// Op is the operation.
	Op Op
	// Proto is the space's protocol name at the time of the operation.
	Proto string
}

// spaceCounters is the live per-space state: one counter and one
// histogram per operation, plus the protocol name (swapped atomically on
// ChangeProtocol).
type spaceCounters struct {
	proto atomic.Pointer[string]
	ops   [NumOps]atomic.Uint64
	fast  [NumOps]atomic.Uint64
	lat   [NumOps]hist
	// rmRead/rmWrite count bracket opens that found the region's data
	// remote (home elsewhere, slow path taken): the adaptive
	// controller's sharing-pattern signal. Only the slow path reports
	// them, so the fast path stays allocation- and branch-lean.
	rmRead  atomic.Uint64
	rmWrite atomic.Uint64
}

// Recorder collects one processor's operation counts and, when timing,
// latencies and events. The zero value is a valid untimed recorder.
// Begin/End are safe to call from any goroutine; AddSpace and
// SetProtocol must be externally ordered with respect to End calls that
// name the space (the runtime guarantees this: spaces are created before
// they are used).
type Recorder struct {
	proc   int32
	timing bool // latency histograms + timestamps; fixed at construction
	spaces atomic.Pointer[[]*spaceCounters]

	mu     sync.Mutex // guards the ring and space growth
	events []Event    // the ring; nil when event tracing is off
	evNext uint64
}

// NewRecorder creates the recorder for processor proc under cfg. Every
// recorder counts; cfg.Metrics or a positive cfg.Events also times, and
// cfg.Events sizes the event ring. A nil cfg counts only.
func NewRecorder(proc int, cfg *Config) *Recorder {
	r := &Recorder{proc: int32(proc)}
	if cfg != nil {
		r.timing = cfg.Metrics || cfg.Events > 0
		if cfg.Events > 0 {
			r.events = make([]Event, cfg.Events)
		}
	}
	return r
}

// AddSpace registers space id with the given protocol name. Spaces are
// dense, created in id order; AddSpace is idempotent for already-known
// ids.
func (r *Recorder) AddSpace(id int, proto string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var cur []*spaceCounters
	if p := r.spaces.Load(); p != nil {
		cur = *p
	}
	if id < len(cur) {
		return
	}
	// Copy-on-write so End may index the slice with a bare atomic load.
	grown := make([]*spaceCounters, id+1)
	copy(grown, cur)
	for i := len(cur); i <= id; i++ {
		sc := &spaceCounters{}
		name := proto
		sc.proto.Store(&name)
		grown[i] = sc
	}
	r.spaces.Store(&grown)
}

// SetProtocol records that space id switched to the named protocol.
func (r *Recorder) SetProtocol(id int, proto string) {
	if p := r.spaces.Load(); p != nil && id >= 0 && id < len(*p) {
		(*p)[id].proto.Store(&proto)
	}
}

// Begin opens a bracketed operation, returning a token to pass to End:
// a timestamp when the recorder times, and 0 ("count only") when it
// does not, which keeps clock reads off the untimed hot path.
// Zero-allocation.
func (r *Recorder) Begin() int64 {
	if !r.timing {
		return 0
	}
	return Now()
}

// End closes a bracketed operation started at begin, attributing it to
// op on the given space (-1 for no space). It always counts the
// operation; a nonzero begin also records its latency and, with the
// event ring on, an event. Zero-allocation.
func (r *Recorder) End(op Op, space int, begin int64) {
	if begin == 0 {
		if p := r.spaces.Load(); p != nil && space >= 0 && space < len(*p) {
			(*p)[space].ops[op].Add(1)
		}
		return
	}
	end := Now()
	d := end - begin
	if d < 0 {
		d = 0
	}
	var proto string
	if p := r.spaces.Load(); p != nil && space >= 0 && space < len(*p) {
		sc := (*p)[space]
		sc.ops[op].Add(1)
		sc.lat[op].observe(d)
		proto = *sc.proto.Load()
	}
	if r.events != nil {
		r.pushEvent(Event{TS: begin, Dur: d, Proc: r.proc, Space: int32(space), Op: op, Proto: proto})
	}
}

// FastHit counts an invocation of op on space that completed on the
// runtime's lock-free bracket fast path. Callers also record the
// operation itself through Begin/End; FastHit only marks the subset.
// Zero-allocation.
func (r *Recorder) FastHit(op Op, space int) {
	if p := r.spaces.Load(); p != nil && space >= 0 && space < len(*p) {
		(*p)[space].fast[op].Add(1)
	}
}

// Fold adds counts tallied outside the recorder to space's counters:
// ops counts operations, fast the subset that hit the fast path. A
// caller that owns a space's untimed operations (one application
// thread) tallies them in plain memory and folds now and then, instead
// of paying End's atomic add per operation. Zero-allocation.
func (r *Recorder) Fold(space int, ops, fast *OpCounts) {
	p := r.spaces.Load()
	if p == nil || space < 0 || space >= len(*p) {
		return
	}
	sc := (*p)[space]
	for op, n := range ops {
		if n != 0 {
			sc.ops[op].Add(n)
		}
	}
	for op, n := range fast {
		if n != 0 {
			sc.fast[op].Add(n)
		}
	}
}

// RemoteMiss counts a bracket open (OpStartRead or OpStartWrite) on
// space that had to reach a remote home for data or permission — the
// slow-path analogue of a cache miss. Zero-allocation.
func (r *Recorder) RemoteMiss(op Op, space int) {
	if p := r.spaces.Load(); p != nil && space >= 0 && space < len(*p) {
		sc := (*p)[space]
		if op == OpStartWrite {
			sc.rmWrite.Add(1)
		} else {
			sc.rmRead.Add(1)
		}
	}
}

// SpaceSnapshot returns one space's metrics (ok=false for an unknown
// space). The adaptive controller diffs consecutive snapshots of the
// counts it reads to get per-epoch deltas.
func (r *Recorder) SpaceSnapshot(id int) (SpaceMetrics, bool) {
	p := r.spaces.Load()
	if p == nil || id < 0 || id >= len(*p) {
		return SpaceMetrics{}, false
	}
	return (*p)[id].snapshot(id), true
}

func (sc *spaceCounters) snapshot(id int) SpaceMetrics {
	sm := SpaceMetrics{Space: id, Protocol: *sc.proto.Load()}
	for op := Op(0); op < NumOps; op++ {
		sm.Ops[op] = sc.ops[op].Load()
		sm.FastOps[op] = sc.fast[op].Load()
		sm.Latency[op] = sc.lat[op].snapshot()
	}
	sm.RemoteReadMisses = sc.rmRead.Load()
	sm.RemoteWriteMisses = sc.rmWrite.Load()
	return sm
}

func (r *Recorder) pushEvent(ev Event) {
	r.mu.Lock()
	if n := uint64(len(r.events)); n > 0 {
		r.events[r.evNext%n] = ev
		r.evNext++
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.events))
	if n == 0 {
		return nil
	}
	if r.evNext <= n {
		out := make([]Event, r.evNext)
		copy(out, r.events[:r.evNext])
		return out
	}
	out := make([]Event, 0, n)
	idx := r.evNext % n
	out = append(out, r.events[idx:]...)
	out = append(out, r.events[:idx]...)
	return out
}

// Snapshot returns the recorder's metrics: per-space operation counts
// and latency histograms plus the cross-space totals. The network half
// of the returned Metrics is zero; callers holding the matching endpoint
// fill it in.
func (r *Recorder) Snapshot() Metrics {
	var m Metrics
	p := r.spaces.Load()
	if p == nil {
		return m
	}
	for id, sc := range *p {
		sm := sc.snapshot(id)
		m.Ops = m.Ops.Add(sm.Ops)
		m.FastOps = m.FastOps.Add(sm.FastOps)
		for op := Op(0); op < NumOps; op++ {
			m.OpLatency[op] = m.OpLatency[op].Add(sm.Latency[op])
		}
		m.Spaces = append(m.Spaces, sm)
	}
	return m
}
