// Package rtiface defines a runtime-neutral interface over the Ace and CRL
// runtimes, so each benchmark exists as a single source that runs on both —
// mirroring the paper's methodology of porting benchmarks between the two
// systems by replacing primitives one for one (Section 5.1).
package rtiface

import (
	"fmt"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/crl"
)

// Handle is an opaque mapped-region handle.
type Handle interface {
	// Data returns the region's local data view, valid between start and
	// end operations.
	Data() core.RegionData
	// ID returns the region's global identifier.
	ID() core.RegionID
}

// SpaceID names a space on runtimes that support them.
type SpaceID int

// RT is the runtime-neutral per-processor interface: the least common
// denominator of the Ace and CRL runtimes.
type RT interface {
	ID() int
	Procs() int

	// Malloc allocates a region homed at the caller, from the default
	// space on runtimes that have spaces.
	Malloc(size int) core.RegionID
	Map(id core.RegionID) Handle
	Unmap(h Handle)
	StartRead(h Handle)
	EndRead(h Handle)
	StartWrite(h Handle)
	EndWrite(h Handle)

	// Barrier synchronizes all processors with the default semantics.
	Barrier()
	Lock(h Handle)
	Unlock(h Handle)

	BroadcastID(root int, id core.RegionID) core.RegionID
	BroadcastIDs(root int, ids []core.RegionID) []core.RegionID
	AllReduceInt64(op core.ReduceOp, v int64) int64
	AllReduceFloat64(op core.ReduceOp, v float64) float64

	// Name identifies the runtime ("ace" or "crl") for reporting.
	Name() string
}

// SpaceRT extends RT with Ace's space and protocol facilities: spaces,
// protocols other than the default sequentially consistent one, and
// runtime protocol changes. Benchmarks request it with a type assertion
// when configured to use custom protocols; a runtime without spaces
// (CRL) does not implement it.
type SpaceRT interface {
	RT
	NewSpace(protoName string) (SpaceID, error)
	MallocIn(sp SpaceID, size int) core.RegionID
	BarrierSpace(sp SpaceID)
	ChangeProtocol(sp SpaceID, protoName string) error
}

// AceRT adapts a core.Proc to RT and SpaceRT.
type AceRT struct {
	P *core.Proc

	spaces []*core.Space
}

var _ SpaceRT = (*AceRT)(nil)

// NewAce wraps p.
func NewAce(p *core.Proc) *AceRT { return &AceRT{P: p} }

// Name returns "ace".
func (a *AceRT) Name() string { return "ace" }

func (a *AceRT) ID() int    { return a.P.ID() }
func (a *AceRT) Procs() int { return a.P.Procs() }

func (a *AceRT) Malloc(size int) core.RegionID {
	return a.P.GMalloc(a.P.DefaultSpace(), size)
}

func (a *AceRT) Map(id core.RegionID) Handle { return aceHandle{a.P.Map(id)} }
func (a *AceRT) Unmap(h Handle)              { a.P.Unmap(h.(aceHandle).r) }
func (a *AceRT) StartRead(h Handle)          { a.P.StartRead(h.(aceHandle).r) }
func (a *AceRT) EndRead(h Handle)            { a.P.EndRead(h.(aceHandle).r) }
func (a *AceRT) StartWrite(h Handle)         { a.P.StartWrite(h.(aceHandle).r) }
func (a *AceRT) EndWrite(h Handle)           { a.P.EndWrite(h.(aceHandle).r) }

// Barrier runs the default space's protocol barrier (the paper's full
// access control: even the plain barrier dispatches through the
// protocol). Under the default sc protocol this is exactly the global
// barrier, but it keeps the barrier's coherence actions — and the
// adaptive controller's evaluation point — attached to the space the
// runtime-neutral benchmarks allocate from.
func (a *AceRT) Barrier()        { a.P.Barrier(a.P.DefaultSpace()) }
func (a *AceRT) Lock(h Handle)   { a.P.Lock(h.(aceHandle).r) }
func (a *AceRT) Unlock(h Handle) { a.P.Unlock(h.(aceHandle).r) }

func (a *AceRT) BroadcastID(root int, id core.RegionID) core.RegionID {
	return a.P.BroadcastID(root, id)
}
func (a *AceRT) BroadcastIDs(root int, ids []core.RegionID) []core.RegionID {
	return a.P.BroadcastIDs(root, ids)
}
func (a *AceRT) AllReduceInt64(op core.ReduceOp, v int64) int64 {
	return a.P.AllReduceInt64(op, v)
}
func (a *AceRT) AllReduceFloat64(op core.ReduceOp, v float64) float64 {
	return a.P.AllReduceFloat64(op, v)
}

// NewSpace creates a space with the named protocol (collective).
func (a *AceRT) NewSpace(protoName string) (SpaceID, error) {
	sp, err := a.P.NewSpace(protoName)
	if err != nil {
		return 0, err
	}
	for len(a.spaces) <= sp.ID {
		a.spaces = append(a.spaces, nil)
	}
	a.spaces[sp.ID] = sp
	return SpaceID(sp.ID), nil
}

// MallocIn allocates from the given space.
func (a *AceRT) MallocIn(sp SpaceID, size int) core.RegionID {
	return a.P.GMalloc(a.space(sp), size)
}

// BarrierSpace runs a barrier with the space's protocol semantics.
func (a *AceRT) BarrierSpace(sp SpaceID) { a.P.Barrier(a.space(sp)) }

// ChangeProtocol switches the space's protocol (collective).
func (a *AceRT) ChangeProtocol(sp SpaceID, protoName string) error {
	return a.P.ChangeProtocol(a.space(sp), protoName)
}

func (a *AceRT) space(sp SpaceID) *core.Space {
	if int(sp) >= len(a.spaces) || a.spaces[sp] == nil {
		if int(sp) == 0 {
			return a.P.DefaultSpace()
		}
		panic(fmt.Sprintf("rtiface: unknown space %d", sp))
	}
	return a.spaces[sp]
}

type aceHandle struct{ r *core.Region }

func (h aceHandle) Data() core.RegionData { return h.r.Data }
func (h aceHandle) ID() core.RegionID     { return h.r.ID }

// CRLRT adapts a crl.Proc to RT. CRL has no spaces, no region locks and no
// customizable protocols.
type CRLRT struct {
	P *crl.Proc
}

var _ RT = (*CRLRT)(nil)

// NewCRL wraps p.
func NewCRL(p *crl.Proc) *CRLRT { return &CRLRT{P: p} }

// Name returns "crl".
func (c *CRLRT) Name() string { return "crl" }

func (c *CRLRT) ID() int    { return c.P.ID() }
func (c *CRLRT) Procs() int { return c.P.Procs() }

func (c *CRLRT) Malloc(size int) core.RegionID { return c.P.Malloc(size) }
func (c *CRLRT) Map(id core.RegionID) Handle   { return crlHandle{c.P.Map(id)} }
func (c *CRLRT) Unmap(h Handle)                { c.P.Unmap(h.(crlHandle).r) }
func (c *CRLRT) StartRead(h Handle)            { c.P.StartRead(h.(crlHandle).r) }
func (c *CRLRT) EndRead(h Handle)              { c.P.EndRead(h.(crlHandle).r) }
func (c *CRLRT) StartWrite(h Handle)           { c.P.StartWrite(h.(crlHandle).r) }
func (c *CRLRT) EndWrite(h Handle)             { c.P.EndWrite(h.(crlHandle).r) }
func (c *CRLRT) Barrier()                      { c.P.Barrier() }

// Lock emulates a region lock with an exclusive write section (CRL
// programs use exclusive sections for mutual exclusion).
func (c *CRLRT) Lock(h Handle)   { c.P.StartWrite(h.(crlHandle).r) }
func (c *CRLRT) Unlock(h Handle) { c.P.EndWrite(h.(crlHandle).r) }

func (c *CRLRT) BroadcastID(root int, id core.RegionID) core.RegionID {
	return c.P.BroadcastID(root, id)
}
func (c *CRLRT) BroadcastIDs(root int, ids []core.RegionID) []core.RegionID {
	return c.P.BroadcastIDs(root, ids)
}
func (c *CRLRT) AllReduceInt64(op core.ReduceOp, v int64) int64 {
	return c.P.AllReduceInt64(op, v)
}
func (c *CRLRT) AllReduceFloat64(op core.ReduceOp, v float64) float64 {
	return c.P.AllReduceFloat64(op, v)
}

type crlHandle struct{ r *crl.Region }

func (h crlHandle) Data() core.RegionData { return h.r.Data() }
func (h crlHandle) ID() core.RegionID     { return h.r.ID() }
