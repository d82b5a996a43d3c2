package core

import (
	"errors"
	"fmt"

	"github.com/acedsm/ace/internal/trace"
)

// Space lifecycle (DESIGN.md §14). Spaces are created and destroyed
// collectively, and the table slot a destroyed space occupied is
// recycled. Layers that hold space handles across collective boundaries
// — a session gateway mapping rooms to spaces — identify a space by its
// generation-tagged SpaceRef, never by the bare table index: a recycled
// slot's new occupant carries a higher generation, so a stale reference
// fails SpaceByRef instead of silently aliasing the new space.

// MaxRegionSize bounds a single region allocation (1 GiB). The limit
// exists for the error-returning allocation path: client-derived sizes
// beyond it fail with ErrBadSize instead of attempting the allocation.
const MaxRegionSize = 1 << 30

// ErrStaleSpace is the sentinel matched by errors.Is when a SpaceRef
// names a space that has been freed (or a slot generation that has been
// recycled past it).
var ErrStaleSpace = errors.New("stale space reference")

// ErrBadSize is the sentinel matched by errors.Is when an allocation
// size is non-positive or exceeds MaxRegionSize.
var ErrBadSize = errors.New("invalid region size")

// StaleSpaceError reports the stale reference. It unwraps to
// ErrStaleSpace.
type StaleSpaceError struct {
	Ref SpaceRef
}

func (e *StaleSpaceError) Error() string {
	return fmt.Sprintf("core: space %d gen %d has been freed", e.Ref.ID, e.Ref.Gen)
}

// Unwrap makes errors.Is(err, ErrStaleSpace) match.
func (e *StaleSpaceError) Unwrap() error { return ErrStaleSpace }

// BadSizeError reports the rejected allocation size. It unwraps to
// ErrBadSize.
type BadSizeError struct {
	Size int
}

func (e *BadSizeError) Error() string {
	return fmt.Sprintf("core: region size %d out of range (0, %d]", e.Size, MaxRegionSize)
}

// Unwrap makes errors.Is(err, ErrBadSize) match.
func (e *BadSizeError) Unwrap() error { return ErrBadSize }

// SpaceRef is a generation-tagged space identifier: the table slot plus
// the slot's generation at the space's creation. It is identical on
// every processor and stays meaningful after the space dies — resolving
// a stale ref reports ErrStaleSpace rather than the slot's next
// occupant.
type SpaceRef struct {
	ID  int
	Gen uint64
}

func (ref SpaceRef) String() string {
	return fmt.Sprintf("space(%d.%d)", ref.ID, ref.Gen)
}

// SpaceByRef resolves a generation-tagged reference. It returns
// ErrStaleSpace (as a *StaleSpaceError) when the slot has been freed or
// recycled since ref was minted, and is safe for references derived
// from external input: it never panics.
func (p *Proc) SpaceByRef(ref SpaceRef) (*Space, error) {
	sps := p.spaces.Load()
	if sps == nil || ref.ID < 0 || ref.ID >= len(*sps) {
		return nil, &StaleSpaceError{Ref: ref}
	}
	sp := (*sps)[ref.ID]
	if sp == nil || sp.Gen != ref.Gen || sp.dead.Load() {
		return nil, &StaleSpaceError{Ref: ref}
	}
	return sp, nil
}

// SpaceSlots returns the space table's current length — slots in use
// plus freed slots awaiting reuse. A workload that creates and destroys
// spaces in waves keeps this bounded by its peak concurrency, which is
// the leak check the churn tests enforce.
func (p *Proc) SpaceSlots() int {
	if sps := p.spaces.Load(); sps != nil {
		return len(*sps)
	}
	return 0
}

// LiveSpaces returns how many spaces currently occupy table slots.
func (p *Proc) LiveSpaces() int {
	n := 0
	if sps := p.spaces.Load(); sps != nil {
		for _, sp := range *sps {
			if sp != nil {
				n++
			}
		}
	}
	return n
}

// FreeSpace destroys sp and recycles its table slot. It is a collective
// operation: every processor must call it, in the same program order,
// for the same space. The destruction follows the ChangeProtocol flush
// discipline — barrier, flush every region of the space to the base
// state (authoritative data at the home, no cached copies, no coherence
// traffic in flight), barrier — and then goes further than a protocol
// change: the fast bits are withdrawn for good, every region of the
// space is deleted from the region table, and the table slot is nilled
// with its generation bumped, so the next NewSpace may recycle it under
// a fresh SpaceRef.
//
// The caller must have quiesced the space: no open sections, no held
// region locks, no processor still using its regions. The default space
// (slot 0) cannot be freed.
func (p *Proc) FreeSpace(sp *Space) error {
	if sp.ID == 0 {
		return fmt.Errorf("core: proc %d: cannot free the default space", p.id)
	}
	if sp.dead.Load() {
		return &StaleSpaceError{Ref: sp.Ref()}
	}
	if err := p.verifyCollective(fmt.Sprintf("freespace:%d:%d", sp.ID, sp.Gen)); err != nil {
		return err
	}
	t := p.rec.Begin()
	p.ctx.DefaultBarrier()
	sp.eng.Lock()
	sp.Proto.FlushSpace(sp.ctx, sp)
	sp.eng.Unlock()
	p.ctx.DefaultBarrier()
	// All data is home-valid and no coherence traffic is in flight.
	// Withdraw the fast bits and collect the space's regions; a region
	// still inside a bracket, holding queued coherence work, or with the
	// region lock held means the caller broke the quiescence contract.
	sp.eng.Lock()
	var purged []RegionID
	for _, r := range p.regionList() {
		if r.Space != sp {
			continue
		}
		r.publishFast(0)
		if r.InUse() {
			panic(fmt.Sprintf("core: proc %d: FreeSpace with open sections on %v", p.id, r.ID))
		}
		if r.Dir != nil {
			if len(r.Dir.Waiting) != 0 || r.Dir.Busy {
				panic(fmt.Sprintf("core: proc %d: FreeSpace with busy directory on %v", p.id, r.ID))
			}
			r.Dir.lockMu.Lock()
			held := r.Dir.LockHolder >= 0 || len(r.Dir.LockQueue) != 0
			r.Dir.lockMu.Unlock()
			if held {
				panic(fmt.Sprintf("core: proc %d: FreeSpace with held region lock on %v", p.id, r.ID))
			}
		}
		purged = append(purged, r.ID)
	}
	sp.dead.Store(true)
	sp.eng.Unlock()
	p.regMu.Lock()
	for _, id := range purged {
		p.regions.Delete(id)
	}
	p.regMu.Unlock()
	// Recycle the slot: nil it in a fresh snapshot, bump the slot
	// generation, and file the index for ascending reuse. The collective
	// discipline keeps free list and generations identical everywhere.
	p.spaceMu.Lock()
	cur := *p.spaces.Load()
	next := make([]*Space, len(cur))
	copy(next, cur)
	next[sp.ID] = nil
	p.spaces.Store(&next)
	p.slotGen[sp.ID]++
	p.spaceFree = insertSortedInt(p.spaceFree, sp.ID)
	p.spaceMu.Unlock()
	p.rec.End(trace.OpFreeSpace, sp.ID, t)
	// Leave together: nobody returns (and can start reusing the slot)
	// before every processor has finished recycling.
	p.ctx.DefaultBarrier()
	return nil
}

// insertSortedInt inserts v into ascending-sorted s, keeping it sorted.
func insertSortedInt(s []int, v int) []int {
	i := 0
	for i < len(s) && s[i] < v {
		i++
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
