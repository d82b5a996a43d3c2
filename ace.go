// Package ace is the public API of the Ace runtime: a region-based
// software distributed shared memory with customizable coherence
// protocols, reproducing Raghavachari & Rogers, "Ace: Linguistic
// Mechanisms for Customizable Protocols" (PPoPP 1997).
//
// # Programming model
//
// An Ace program is SPMD: NewCluster creates P logical processors, and
// Run executes the same function on each, one user thread per processor.
// Shared data lives in regions — arbitrarily sized blocks with a unique id
// — allocated from spaces. A space is the paper's central abstraction: an
// allocation arena with an associated coherence protocol. Programs are
// developed against the default sequentially consistent space and then
// tuned by moving data structures into spaces with application-specific
// protocols, or by switching a space's protocol as the program changes
// phase:
//
//	cl, _ := ace.NewCluster(ace.Options{Procs: 8})
//	defer cl.Close()
//	cl.Run(func(p *ace.Proc) error {
//		sp, _ := p.NewSpace("sc")
//		var id ace.RegionID
//		if p.ID() == 0 {
//			id = p.GMalloc(sp, 1024)
//		}
//		id = p.BroadcastID(0, id)
//		r := p.Map(id)
//		p.StartWrite(r)
//		r.Data.SetFloat64(0, 3.14)
//		p.EndWrite(r)
//		p.Barrier(sp)
//		// Later: switch the space to an update protocol.
//		return p.ChangeProtocol(sp, "update")
//	})
//
// Accesses to a mapped region's Data are bracketed by StartRead/EndRead or
// StartWrite/EndWrite; the semantics of those brackets are whatever the
// space's protocol defines. The runtime dispatches every primitive —
// including Barrier, Lock and Unlock — through the protocol ("full access
// control"), so protocols can act before and after accesses and at
// synchronization points.
//
// # Protocols
//
// NewCluster installs the protocol library from package proto ("sc",
// "null", "update", "staticupdate", "migratory", "pipeline", "atomic",
// "homewrite") unless Options.Registry overrides it. New protocols are
// added by implementing the Protocol interface and registering an Info —
// the analogue of the paper's protocol-registration script; see package
// proto for worked examples.
//
// # Adaptive protocol selection
//
// Setting Options.Adapt turns on the online protocol controller: at
// barrier points the runtime classifies each adaptable space's access
// pattern from the trace counters (read/write mix, remote misses,
// writer and reader counts, lock traffic) and — after a fixed
// hysteresis — switches the space to the registered protocol advertising
// that pattern, through the same collective ChangeProtocol an
// application would call by hand. A program can thus start every space
// on "sc" and let the runtime specialize it:
//
//	cl, _ := ace.NewCluster(ace.Options{Procs: 8, Adapt: true})
//
// Controller state (classified pattern, epochs, switches) is surfaced in
// Metrics.Adapt. Protocols opt in by declaring AdaptHints in their
// registry Info; see DESIGN.md §7 for the decision procedure and its
// fixed policy.
//
// # Observability
//
// The runtime always counts: per-space operation, fast-path hit and
// remote-miss counters, and network traffic counters. Options.Trace
// adds the rest of the observability layer: TraceConfig.Metrics times
// every operation into per-space latency histograms, and a positive
// TraceConfig.Events keeps a bounded per-processor event ring exported
// as Chrome trace_event JSON.
// Snapshots are read with Proc.Snapshot (one processor, on its own
// application thread) or Cluster.Metrics (whole cluster, from any
// goroutine), and the event trace is written with Cluster.WriteTrace:
//
//	cl, _ := ace.NewCluster(ace.Options{
//		Procs: 8,
//		Trace: &ace.TraceConfig{Metrics: true, Events: 1 << 16},
//	})
//	cl.Run(work)
//	m := cl.Metrics()                  // ace.Metrics: ops, latency, net
//	fmt.Println(m.Ops.Get(ace.OpMap))  // e.g. total Map invocations
//	f, _ := os.Create("trace.json")    // chrome://tracing / Perfetto
//	cl.WriteTrace(f)
//
// With Options.Trace nil a bracketed operation is counted but not timed:
// a plain increment of a tally the processor's thread folds into the
// shared counters, no clock read, no allocation.
//
// # Failure model
//
// Options.Faults wraps the cluster's transport in a seeded model of a
// faulty wire under a reliable transport (delays, drops with
// redelivery, partitions, a slow node): delivery stays per-pair
// FIFO and exactly-once and only its timing suffers, so a correct
// program still computes correct results — useful for stress testing
// protocols, and FaultPolicy{Delay: d} alone models a network latency
// d. Injected faults are counted in Metrics.Net.Faults.
// Options.SyncTimeout bounds every synchronization wait: a stalled
// collective fails Run with an error matching ErrSyncStall, and a lost
// peer (on transports that detect one, like the supervised TCP
// transport) fails blocked waits with ErrPeerLost instead of hanging.
// See DESIGN.md §6.
package ace

import (
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/faultnet"
	"github.com/acedsm/ace/internal/trace"
	"github.com/acedsm/ace/proto"
)

// Core type re-exports. See the corresponding internal/core documentation
// on each.
type (
	// Options configures a cluster (processor count, registry, network).
	Options = core.Options
	// Cluster is a set of logical processors sharing regions.
	Cluster = core.Cluster
	// Proc is one processor's handle on the runtime.
	Proc = core.Proc
	// Space binds a protocol to a set of regions.
	Space = core.Space
	// Region is a processor's local view of a shared region.
	Region = core.Region
	// RegionID names a shared region globally.
	RegionID = core.RegionID
	// RegionData is a region's byte storage with typed accessors.
	RegionData = core.RegionData
	// Protocol is the interface coherence protocols implement.
	Protocol = core.Protocol
	// Ctx provides runtime services to protocol implementations.
	Ctx = core.Ctx
	// Info is a protocol registry entry.
	Info = core.Info
	// Decl is the compiler-visible part of an Info.
	Decl = core.Decl
	// Registry holds the available protocols.
	Registry = core.Registry
	// Directory is the per-region coherence directory at the home.
	Directory = core.Directory
	// Point names a protocol invocation point.
	Point = core.Point
	// PointSet is a set of invocation points.
	PointSet = core.PointSet
	// ReduceOp selects an AllReduce combining operator.
	ReduceOp = core.ReduceOp
	// AdaptHints is a protocol's declaration to the adaptive controller,
	// part of its registry Info.
	AdaptHints = core.AdaptHints
	// Base is an embeddable no-op Protocol implementation.
	Base = core.Base
	// Checkpoint is a collective snapshot of a cluster's shared state,
	// taken by Proc.Checkpoint at a barrier point and restored — after a
	// failure — by Proc.RestoreCheckpoint on every processor. See
	// DESIGN.md §13.
	Checkpoint = core.Checkpoint
	// CheckpointRegion is one home region's contents in a Checkpoint.
	CheckpointRegion = core.CheckpointRegion
	// PeerLostError reports which peer's loss failed a blocked wait.
	PeerLostError = core.PeerLostError
	// SyncStallError reports a synchronization wait that outlived
	// Options.SyncTimeout.
	SyncStallError = core.SyncStallError
	// SpaceRef is a generation-tagged space identifier: it stays
	// meaningful after the space dies, and resolving a stale one
	// (Proc.SpaceByRef) reports ErrStaleSpace instead of the table
	// slot's next occupant. See DESIGN.md §14.
	SpaceRef = core.SpaceRef
	// StaleSpaceError reports a SpaceRef whose space has been freed.
	StaleSpaceError = core.StaleSpaceError
	// BadSizeError reports an allocation size rejected by GMallocE.
	BadSizeError = core.BadSizeError
)

// Failure-model sentinels, matched with errors.Is against Run's error.
var (
	// ErrPeerLost: a peer went down while this processor was blocked on it.
	ErrPeerLost = core.ErrPeerLost
	// ErrSyncStall: a synchronization wait exceeded Options.SyncTimeout.
	ErrSyncStall = core.ErrSyncStall
	// ErrStaleSpace: a SpaceRef named a freed (or recycled) space.
	ErrStaleSpace = core.ErrStaleSpace
	// ErrBadSize: an allocation size was non-positive or above
	// MaxRegionSize (GMallocE's bound on client-derived sizes).
	ErrBadSize = core.ErrBadSize
)

// MaxRegionSize bounds a single region allocation on the
// error-returning path (Proc.GMallocE).
const MaxRegionSize = core.MaxRegionSize

// Fault-injection re-exports. See the corresponding internal/faultnet
// documentation on each.
type (
	// FaultPolicy configures the fault injector; assign one to
	// Options.Faults.
	FaultPolicy = faultnet.Policy
	// FaultPartition is a timed bidirectional partition window in a
	// FaultPolicy: traffic both ways between the pair is lost while the
	// window is open.
	FaultPartition = faultnet.Partition
	// FaultCounts tallies injected faults per kind (Metrics.Net.Faults).
	FaultCounts = trace.FaultCounts
)

// Observability type re-exports. See the corresponding internal/trace
// documentation on each.
type (
	// TraceConfig selects what the observability layer records; assign
	// one to Options.Trace.
	TraceConfig = trace.Config
	// Metrics is a cluster- or processor-level observability snapshot.
	Metrics = trace.Metrics
	// SpaceMetrics is one space's operation counts and latencies.
	SpaceMetrics = trace.SpaceMetrics
	// AdaptStats is one space's adaptive-controller state
	// (Metrics.Adapt), populated when Options.Adapt is set.
	AdaptStats = trace.AdaptStats
	// OpCounts is a per-operation counter vector.
	OpCounts = trace.OpCounts
	// Histogram is a power-of-two latency histogram snapshot.
	Histogram = trace.Histogram
	// NetSnapshot is an endpoint- or cluster-level traffic snapshot.
	NetSnapshot = trace.NetSnapshot
	// TraceOp names an instrumented runtime primitive.
	TraceOp = trace.Op
	// TraceEvent is one completed operation in the event ring.
	TraceEvent = trace.Event
)

// The instrumented runtime primitives, indexing OpCounts and
// Metrics.OpLatency.
const (
	OpGMalloc        = trace.OpGMalloc
	OpMap            = trace.OpMap
	OpUnmap          = trace.OpUnmap
	OpStartRead      = trace.OpStartRead
	OpEndRead        = trace.OpEndRead
	OpStartWrite     = trace.OpStartWrite
	OpEndWrite       = trace.OpEndWrite
	OpBarrier        = trace.OpBarrier
	OpLock           = trace.OpLock
	OpUnlock         = trace.OpUnlock
	OpChangeProtocol = trace.OpChangeProtocol
	OpFreeSpace      = trace.OpFreeSpace
)

// Reduction operators.
const (
	OpSum = core.OpSum
	OpMin = core.OpMin
	OpMax = core.OpMax
)

// The access-pattern labels used by the adaptive controller
// (AdaptHints.Pattern, AdaptStats.Pattern).
const (
	PatternGeneral          = core.PatternGeneral
	PatternMigratory        = core.PatternMigratory
	PatternSingleWriter     = core.PatternSingleWriter
	PatternProducerConsumer = core.PatternProducerConsumer
	PatternHomeWrite        = core.PatternHomeWrite
)

// Protocol invocation points.
const (
	PointMap        = core.PointMap
	PointUnmap      = core.PointUnmap
	PointStartRead  = core.PointStartRead
	PointEndRead    = core.PointEndRead
	PointStartWrite = core.PointStartWrite
	PointEndWrite   = core.PointEndWrite
	PointBarrier    = core.PointBarrier
	PointLock       = core.PointLock
	PointUnlock     = core.PointUnlock
)

// NewCluster creates a cluster. If opts.Registry is nil, the full protocol
// library (package proto) is installed.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.Registry == nil {
		opts.Registry = proto.NewRegistry()
	}
	return core.NewCluster(opts)
}

// NewRegistry returns a registry with the built-in "sc" protocol plus the
// whole protocol library.
func NewRegistry() *Registry { return proto.NewRegistry() }

// EncodeCheckpoint serializes a checkpoint to its versioned wire/file
// format, ACK2: a header with the collective, allocation and
// application cursors, the per-space protocol names, then the home
// regions (see DESIGN.md §13). Files in the older ACK1 layout are
// rejected by DecodeCheckpoint.
func EncodeCheckpoint(ck *Checkpoint) []byte { return core.EncodeCheckpoint(ck) }

// DecodeCheckpoint is EncodeCheckpoint's inverse; it validates the
// framing and rejects truncated or corrupt images.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) { return core.DecodeCheckpoint(b) }
