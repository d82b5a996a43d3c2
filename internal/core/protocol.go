// Package core implements the Ace runtime system: a region-based software
// distributed shared memory with customizable coherence protocols.
//
// The design follows Raghavachari & Rogers, "Ace: Linguistic Mechanisms for
// Customizable Protocols" (PPoPP 1997). Shared data lives in arbitrarily
// sized regions allocated from spaces; every space has an associated
// protocol, and all runtime primitives (map, start/end read, start/end
// write, barrier, lock, unlock) dispatch through the space's protocol. The
// protocol of a space can be changed at runtime, with the old protocol
// flushing regions back to a base state.
package core

import (
	"strings"

	"github.com/acedsm/ace/internal/amnet"
)

// Point names an access or synchronization point at which a protocol
// routine can be invoked. This is the paper's "full access control": unlike
// access-fault schemes, protocols run both before and after accesses and at
// synchronization points.
type Point uint8

// The protocol invocation points, in the order they appear in the protocol
// configuration file.
const (
	PointMap Point = iota
	PointUnmap
	PointStartRead
	PointEndRead
	PointStartWrite
	PointEndWrite
	PointBarrier
	PointLock
	PointUnlock
	NumPoints
)

var pointNames = [NumPoints]string{
	"map", "unmap", "start_read", "end_read",
	"start_write", "end_write", "barrier", "lock", "unlock",
}

func (p Point) String() string {
	if p < NumPoints {
		return pointNames[p]
	}
	return "invalid_point"
}

// ParsePoint converts a configuration-file point name back to a Point.
func ParsePoint(s string) (Point, bool) {
	for i, n := range pointNames {
		if n == s {
			return Point(i), true
		}
	}
	return 0, false
}

// PointSet is a bitmask of Points.
type PointSet uint16

// AllPoints contains every invocation point.
const AllPoints PointSet = 1<<NumPoints - 1

// With returns s with p added.
func (s PointSet) With(p Point) PointSet { return s | 1<<p }

// Without returns s with p removed.
func (s PointSet) Without(p Point) PointSet { return s &^ (1 << p) }

// Has reports whether p is in s.
func (s PointSet) Has(p Point) bool { return s&(1<<p) != 0 }

func (s PointSet) String() string {
	var parts []string
	for p := Point(0); p < NumPoints; p++ {
		if s.Has(p) {
			parts = append(parts, p.String())
		}
	}
	return strings.Join(parts, ",")
}

// Protocol is the interface a protocol library implements. One instance is
// created per (space, processor) pair, so instances may keep per-processor
// state in their fields without synchronization: every method is invoked
// with the owning space's engine lock held, either from the application
// thread (access and synchronization points) or from a message handler
// (Deliver). Brackets that commit on the lock-free fast path never enter
// the protocol at all — see FastPather.
//
// Methods must not block except by ctx.Wait on a waiter they created, and
// Deliver must never block at all: it runs wherever its message is
// dispatched — on a pump, or on the channel fabric directly on the
// sending goroutine, which may be another processor's application thread
// holding that processor's engine.
type Protocol interface {
	// Name returns the protocol's registered name.
	Name() string

	// InitSpace runs when the protocol is attached to a space, either at
	// space creation or after a ChangeProtocol. All regions of the space
	// are in the base state: data valid at its home, no cached copies.
	InitSpace(ctx *Ctx, sp *Space)

	// FlushSpace returns the space to the base state: every region's
	// authoritative contents at its home, no cached copies, directories
	// about to be reset by the runtime. It is called collectively on all
	// processors with a global barrier before and after, so it may both
	// push local dirty data home and (at the home) wait for pushes.
	FlushSpace(ctx *Ctx, sp *Space)

	// RegionCreated runs at the home when a region is allocated from the
	// space, and on a remote processor when it first materializes the
	// region (at first map, or when a broadcast names the region). r.Dir
	// is non-nil exactly at the home.
	RegionCreated(ctx *Ctx, r *Region)

	// Map and Unmap run at region map/unmap. The runtime maintains the
	// map count; protocols typically use these to prefetch or flush.
	Map(ctx *Ctx, r *Region)
	Unmap(ctx *Ctx, r *Region)

	// StartRead/EndRead/StartWrite/EndWrite bracket accesses to r.Data.
	// On return from StartRead (StartWrite), r.Data must be valid for
	// reading (writing) under the protocol's consistency model.
	StartRead(ctx *Ctx, r *Region)
	EndRead(ctx *Ctx, r *Region)
	StartWrite(ctx *Ctx, r *Region)
	EndWrite(ctx *Ctx, r *Region)

	// Barrier implements the space's barrier semantics. Most protocols
	// perform protocol actions (propagating updates, draining pipelines)
	// and then call ctx.DefaultBarrier.
	Barrier(ctx *Ctx, sp *Space)

	// Lock and Unlock implement region locks. The default implementation
	// is ctx.DefaultLock / ctx.DefaultUnlock (a home-based queue lock).
	Lock(ctx *Ctx, r *Region)
	Unlock(ctx *Ctx, r *Region)

	// Deliver handles a protocol message. r is the local region the
	// message names, or nil if the region is not materialized here (the
	// protocol may create it with ctx.EnsureRegion). Deliver runs as a
	// message handler and must not block.
	Deliver(ctx *Ctx, sp *Space, r *Region, m amnet.Msg)
}

// FastPather is an optional Protocol extension: protocols whose bracket
// routines are no-ops for a region in certain states implement it to let
// the runtime complete those brackets with a lock-free CAS on the
// region's hot word, never invoking the protocol.
//
// FastBits is called with the space's engine lock held, after every
// protocol invocation on the region, and must be a pure function of the
// region's current protocol state. Returning FastRead (FastWrite) is
// the promise that, in the state just established:
//
//   - StartRead/EndRead (StartWrite/EndWrite) on this processor are
//     no-ops, and r.Data is valid for reading (writing) under the
//     protocol's consistency model for as long as the bits stay
//     published;
//   - skipping the routines has no protocol-visible effect — in
//     particular, no deferred work (pending invalidations, queued
//     directory requests, a deferred push to settle) hinges on a
//     section-end invocation.
//
// Returning FastWriteLogged makes the same promise for write brackets
// except one effect: EndWrite would put the region on the write log
// (Ctx.LogWrite) and do nothing else.
// The runtime's fast close performs that effect itself, setting the
// region's written bit in the closing CAS, so a protocol whose only
// section-end work is dirty-list bookkeeping keeps its writes on the
// fast path. Anything more at the close — serving a fetch queued on
// Dir.Waiting, settling a deferred update — must withdraw the bit.
//
// The runtime withdraws the bits before every Deliver on the region and
// republishes them after, so protocol state changes made in handlers
// cannot race a fast bracket. Protocol code that mutates the coherence
// state of other regions (bulk invalidation at barriers) must withdraw
// their bits itself with Ctx.DisableFast first.
//
// Protocols for which every access must run handlers (for example the
// race-checking debug protocol) simply do not implement the interface.
type FastPather interface {
	// FastBits returns the bracket kinds currently hit-eligible for r.
	FastBits(r *Region) FastBits
}

// Dropper is an optional Protocol extension: protocols that can discard a
// clean locally cached copy implement it, letting runtimes with bounded
// caching (the CRL baseline's unmapped-region cache) evict safely.
type Dropper interface {
	// DropCopy discards the local cached copy of r if that is safe right
	// now, reporting whether it did.
	DropCopy(ctx *Ctx, r *Region) bool
}

// Base is an embeddable no-op implementation of every Protocol method
// except Name. Protocol authors embed Base and override the points their
// protocol acts at; the registry's null-point declaration should match the
// overridden set.
type Base struct{}

func (Base) InitSpace(*Ctx, *Space)                   {}
func (Base) FlushSpace(*Ctx, *Space)                  {}
func (Base) RegionCreated(*Ctx, *Region)              {}
func (Base) Map(*Ctx, *Region)                        {}
func (Base) Unmap(*Ctx, *Region)                      {}
func (Base) StartRead(*Ctx, *Region)                  {}
func (Base) EndRead(*Ctx, *Region)                    {}
func (Base) StartWrite(*Ctx, *Region)                 {}
func (Base) EndWrite(*Ctx, *Region)                   {}
func (Base) Barrier(ctx *Ctx, _ *Space)               { ctx.DefaultBarrier() }
func (Base) Lock(ctx *Ctx, r *Region)                 { ctx.DefaultLock(r) }
func (Base) Unlock(ctx *Ctx, r *Region)               { ctx.DefaultUnlock(r) }
func (Base) Deliver(*Ctx, *Space, *Region, amnet.Msg) {}
