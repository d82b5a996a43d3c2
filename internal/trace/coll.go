package trace

import "sync/atomic"

// CollStats counts collective and aggregation traffic on one processor.
// Like NetStats it is always on and lock-free: the counting sites sit on
// the barrier and push paths, where a mutex would serialize exactly the
// traffic the counters exist to observe.
type CollStats struct {
	barriers   atomic.Uint64
	reduces    atomic.Uint64
	bcasts     atomic.Uint64
	hops       atomic.Uint64
	bytes      atomic.Uint64
	aggFrames  atomic.Uint64
	aggRegions atomic.Uint64
}

// CountBarrier records one barrier entered by the local thread.
func (s *CollStats) CountBarrier() { s.barriers.Add(1) }

// CountReduce records one all-reduce round entered by the local thread.
func (s *CollStats) CountReduce() { s.reduces.Add(1) }

// CountBcast records one broadcast participated in by the local thread.
func (s *CollStats) CountBcast() { s.bcasts.Add(1) }

// CountHops records msgs collective wire messages carrying bytes payload
// bytes in total (arrivals sent up, results and releases fanned down).
func (s *CollStats) CountHops(msgs, bytes int) {
	s.hops.Add(uint64(msgs))
	s.bytes.Add(uint64(bytes))
}

// CountFrame records one aggregated protocol frame carrying the given
// number of region records.
func (s *CollStats) CountFrame(regions int) {
	s.aggFrames.Add(1)
	s.aggRegions.Add(uint64(regions))
}

// Snapshot returns a plain-value copy of the counters.
func (s *CollStats) Snapshot() CollSnapshot {
	return CollSnapshot{
		Barriers:   s.barriers.Load(),
		Reduces:    s.reduces.Load(),
		Bcasts:     s.bcasts.Load(),
		Hops:       s.hops.Load(),
		Bytes:      s.bytes.Load(),
		AggFrames:  s.aggFrames.Load(),
		AggRegions: s.aggRegions.Load(),
	}
}

// CollSnapshot is a point-in-time copy of one processor's (or, after
// aggregation, a cluster's) collective and aggregation counters.
type CollSnapshot struct {
	// Barriers / Reduces / Bcasts count collective rounds entered by
	// application threads (each processor counts its own entry, so the
	// cluster-wide number is rounds × processors).
	Barriers uint64
	Reduces  uint64
	Bcasts   uint64
	// Hops counts collective wire messages sent by this processor:
	// arrivals and partials up the topology, results and releases down.
	Hops uint64
	// Bytes is the payload bytes carried by those hops.
	Bytes uint64
	// AggFrames counts aggregated protocol frames sent; AggRegions the
	// region records they carried.
	AggFrames  uint64
	AggRegions uint64
}

// Add returns the element-wise sum of two snapshots.
func (c CollSnapshot) Add(o CollSnapshot) CollSnapshot {
	c.Barriers += o.Barriers
	c.Reduces += o.Reduces
	c.Bcasts += o.Bcasts
	c.Hops += o.Hops
	c.Bytes += o.Bytes
	c.AggFrames += o.AggFrames
	c.AggRegions += o.AggRegions
	return c
}
