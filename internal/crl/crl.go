// Package crl implements a CRL-like region-based software DSM: the
// baseline system the paper compares Ace against (Johnson, Kaashoek &
// Wallach, SOSP 1995; the CRL 1.0 distribution).
//
// Like Ace, CRL shares arbitrarily sized regions bracketed by map/unmap
// and start/end read/write operations, running a fixed sequentially
// consistent invalidation protocol. It differs from the Ace runtime in
// exactly the mechanisms the paper credits for the Figure 7a results:
//
//   - Mapping goes through hash tables: a mapped-region table plus an
//     unmapped-region cache (URC), instead of Ace's dense two-level
//     region table.
//   - The URC has bounded capacity; unmapping beyond the bound evicts
//     clean cached copies FIFO, so fine-grained applications that map and
//     unmap many regions re-fetch data the Ace runtime would still have
//     cached.
//   - There is no space/protocol indirection — calls go straight to the
//     one protocol — which is why coarse-grained applications (BSC) see
//     no benefit from Ace's runtime redesign.
//
// The coherence engine itself is shared with the Ace runtime (both run
// the same home-directory invalidation protocol), which mirrors the
// paper's methodology of comparing runtimes, not protocol implementations.
package crl

import (
	"fmt"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/trace"
)

// Options configures a CRL cluster.
type Options struct {
	// Procs is the number of logical processors.
	Procs int
	// URCCapacity bounds the unmapped-region cache (per processor);
	// 0 means the default of 64 regions.
	URCCapacity int
}

// DefaultURCCapacity is the per-processor unmapped-region cache bound.
const DefaultURCCapacity = 64

// Cluster is a CRL cluster. Create with NewCluster, execute with Run.
type Cluster struct {
	inner *core.Cluster
	urc   int
}

// NewCluster creates a CRL cluster of opts.Procs processors.
func NewCluster(opts Options) (*Cluster, error) {
	if opts.URCCapacity == 0 {
		opts.URCCapacity = DefaultURCCapacity
	}
	if opts.URCCapacity < 0 {
		return nil, fmt.Errorf("crl: bad URC capacity %d", opts.URCCapacity)
	}
	inner, err := core.NewCluster(core.Options{Procs: opts.Procs})
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner, urc: opts.URCCapacity}, nil
}

// Procs returns the cluster size.
func (c *Cluster) Procs() int { return c.inner.Procs() }

// Run executes fn on every processor concurrently, one user thread per
// processor.
func (c *Cluster) Run(fn func(p *Proc) error) error {
	return c.inner.Run(func(ip *core.Proc) error {
		p := &Proc{
			inner:  ip,
			cl:     c,
			mapped: make(map[core.RegionID]*Region),
			urc:    make(map[core.RegionID]*Region),
			meta:   make(map[core.RegionID]*regionMeta),
		}
		return fn(p)
	})
}

// Close shuts the cluster down.
func (c *Cluster) Close() error { return c.inner.Close() }

// Metrics aggregates the observability snapshot across all processors
// (quiescent clusters only): operation and network counts. CRL does not
// expose Options.Trace, so the latency histograms stay empty.
func (c *Cluster) Metrics() trace.Metrics { return c.inner.Metrics() }

// Region is a CRL region handle: rgn_map's return value.
type Region struct {
	cr       *core.Region
	mapCount int
}

// Data returns the region's local data view, valid for access between
// start/end operations.
func (r *Region) Data() core.RegionData { return r.cr.Data }

// ID returns the region's global identifier.
func (r *Region) ID() core.RegionID { return r.cr.ID }

// Size returns the region's size in bytes.
func (r *Region) Size() int { return r.cr.Size }

// Proc is one processor's handle on the CRL runtime (crl.h's per-node
// interface).
type Proc struct {
	inner *core.Proc
	cl    *Cluster

	// mapped is the hash table of currently mapped regions.
	mapped map[core.RegionID]*Region
	// urc is the unmapped-region cache, FIFO-evicted at capacity.
	urc      map[core.RegionID]*Region
	urcOrder []core.RegionID
	// meta is CRL's per-region operation bookkeeping (version numbers and
	// state-table entries consulted on every start/end operation); its
	// hash lookups model CRL 1.0's heavier per-operation path, one of the
	// two mechanisms behind Figure 7a.
	meta map[core.RegionID]*regionMeta
}

// regionMeta is the per-region bookkeeping updated on every operation.
type regionMeta struct {
	version   uint64
	sendCount uint64
	state     int32
}

// note records an operation on a region in the CRL bookkeeping tables.
func (p *Proc) note(id core.RegionID, state int32) {
	m := p.meta[id]
	if m == nil {
		m = &regionMeta{}
		p.meta[id] = m
	}
	m.version++
	m.state = state
}

// ID returns this processor's id.
func (p *Proc) ID() int { return p.inner.ID() }

// Procs returns the cluster size.
func (p *Proc) Procs() int { return p.inner.Procs() }

// Malloc allocates a shared region of size bytes homed here (rgn_create).
func (p *Proc) Malloc(size int) core.RegionID {
	return p.inner.GMalloc(p.inner.DefaultSpace(), size)
}

// Map maps a region into the local address space (rgn_map): a hash lookup
// in the mapped table, then the URC, then the shared engine's Map, which
// fetches the metadata from the home unless a broadcast of the id
// already carried it.
func (p *Proc) Map(id core.RegionID) *Region {
	if r, ok := p.mapped[id]; ok {
		r.mapCount++
		p.inner.Map(id) // keep the shared engine's count in step
		return r
	}
	if r, ok := p.urc[id]; ok {
		delete(p.urc, id)
		p.urcRemoveOrder(id)
		r.mapCount = 1
		p.mapped[id] = r
		p.inner.Map(id)
		return r
	}
	cr := p.inner.Map(id)
	r := &Region{cr: cr, mapCount: 1}
	p.mapped[id] = r
	return r
}

// Unmap unmaps a region (rgn_unmap). The region moves to the URC; if the
// cache is over capacity the oldest entry is evicted, discarding its clean
// cached copy.
func (p *Proc) Unmap(r *Region) {
	p.inner.Unmap(r.cr)
	r.mapCount--
	if r.mapCount > 0 {
		return
	}
	delete(p.mapped, r.cr.ID)
	p.urc[r.cr.ID] = r
	p.urcOrder = append(p.urcOrder, r.cr.ID)
	for len(p.urcOrder) > p.cl.urc {
		victim := p.urcOrder[0]
		p.urcOrder = p.urcOrder[1:]
		vr, ok := p.urc[victim]
		if !ok {
			continue
		}
		delete(p.urc, victim)
		p.inner.DropCopy(vr.cr)
	}
}

// StartRead opens a read section (rgn_start_read).
func (p *Proc) StartRead(r *Region) {
	p.note(r.cr.ID, 1)
	p.inner.StartRead(r.cr)
}

// EndRead closes a read section (rgn_end_read).
func (p *Proc) EndRead(r *Region) {
	p.note(r.cr.ID, 2)
	p.inner.EndRead(r.cr)
}

// StartWrite opens a write section (rgn_start_write).
func (p *Proc) StartWrite(r *Region) {
	p.note(r.cr.ID, 3)
	p.inner.StartWrite(r.cr)
}

// EndWrite closes a write section (rgn_end_write).
func (p *Proc) EndWrite(r *Region) {
	p.note(r.cr.ID, 4)
	p.inner.EndWrite(r.cr)
}

// Barrier synchronizes all processors (rgn_barrier).
func (p *Proc) Barrier() { p.inner.GlobalBarrier() }

// BroadcastID distributes a region id from root (collective).
func (p *Proc) BroadcastID(root int, id core.RegionID) core.RegionID {
	return p.inner.BroadcastID(root, id)
}

// BroadcastIDs distributes a slice of region ids from root (collective).
func (p *Proc) BroadcastIDs(root int, ids []core.RegionID) []core.RegionID {
	return p.inner.BroadcastIDs(root, ids)
}

// AllReduceInt64 combines v across processors (collective).
func (p *Proc) AllReduceInt64(op core.ReduceOp, v int64) int64 {
	return p.inner.AllReduceInt64(op, v)
}

// AllReduceFloat64 combines v across processors (collective).
func (p *Proc) AllReduceFloat64(op core.ReduceOp, v float64) float64 {
	return p.inner.AllReduceFloat64(op, v)
}

func (p *Proc) urcRemoveOrder(id core.RegionID) {
	for i, v := range p.urcOrder {
		if v == id {
			p.urcOrder = append(p.urcOrder[:i], p.urcOrder[i+1:]...)
			return
		}
	}
}
