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

// quiesce opens every lifecycle collective that resets or frees spaces
// (ChangeProtocol, Checkpoint, FreeSpace): one verifying round checks
// that every processor made the same call (tag), fences in-flight
// brackets and ORs holdsCoherence over sps across the cluster. Only if
// some processor holds state are the spaces flushed to the base state
// (flushFenced). When none does, nothing of sps is cached or in flight,
// and the home copies are the base state already; only the write logs
// go, as flushFenced drops them. Collective; the caller holds no
// engine.
func (p *Proc) quiesce(tag string, sps ...*Space) error {
	holds := false
	for _, sp := range sps {
		sp.eng.Lock()
		holds = p.holdsCoherence(sp)
		sp.eng.Unlock()
		if holds {
			break
		}
	}
	flush, err := p.verifyRound(tag, holds)
	if err != nil {
		return err
	}
	if flush {
		p.flushFenced(sps...)
	} else {
		for _, sp := range sps {
			sp.takeLog()
		}
	}
	return nil
}

// flushFenced flushes the spaces in sps once quiesce has fenced them:
// each space's protocol flushes (authoritative data at the home, no
// cached copies), and a barrier fences the flush traffic. Only then — with nothing in flight
// anywhere — is every region's fast-path eligibility withdrawn, so no
// bracket keeps fast-hitting a flushed copy; the protocol republishes
// lazily as brackets take the slow path. The write log is dropped with
// it (a protocol's flush takes what it ships; anything left is stale at
// the base state). Collective; the caller holds no engine.
func (p *Proc) flushFenced(sps ...*Space) {
	for _, sp := range sps {
		sp.eng.Lock()
		sp.Proto.FlushSpace(sp.ctx, sp)
		sp.eng.Unlock()
	}
	p.ctx.DefaultBarrier()
	for _, sp := range sps {
		sp.eng.Lock()
		for _, r := range sp.regions {
			r.publishFast(0)
		}
		sp.takeLog()
		sp.eng.Unlock()
	}
}

// holdsCoherence reports whether this processor holds state a lifecycle
// collective must flush for sp (see quiesce): a view of a region it is
// not home to, a home directory that lists a sharer or an owner, or a
// space message it sent itself that no handler has finished
// (racecheck's home notifications, a home's own unlock). Every message
// between two processors about a region has a non-home view at one end,
// so when no processor holds state nothing of sp is cached or in
// flight, and the home copies are already the base state. Caller holds
// sp.eng.
func (p *Proc) holdsCoherence(sp *Space) bool {
	if p.selfPending.Load() != 0 {
		return true
	}
	for _, r := range sp.regions {
		if !r.IsHome() || !r.Dir.Sharers.Empty() || r.Dir.Owner >= 0 {
			return true
		}
	}
	return false
}

// resetRegion returns r's protocol-owned state to the base state: fast
// bits withdrawn, State, Flags and PState zeroed, and the directory's
// coherence fields reset (lock state is the caller's concern). The
// written bit goes with the space's write log, which every caller drops
// (flushFenced before the reset, or reinstall after it). Caller holds
// r's space engine.
func resetRegion(r *Region) {
	r.State, r.Flags, r.PState = 0, 0, nil
	r.publishFast(0)
	if r.Dir != nil {
		r.Dir.ResetCoherence()
	}
}

// assertQuiescent panics unless r's directory, if r is homed here, is
// idle: no transaction in progress, no queued coherence request and no
// queued lock waiter. It holds at any collective after quiesce,
// because every processor is inside the collective. Caller holds r's
// space engine.
func (p *Proc) assertQuiescent(op string, r *Region) {
	d := r.Dir
	if d == nil {
		return
	}
	if _, queued := d.lockState(); d.Busy || len(d.Waiting) != 0 || queued != 0 {
		panic(fmt.Sprintf("core: proc %d: %s with busy directory on %v", p.id, op, r.ID))
	}
}

// reinstall starts info's protocol on sp from the base state: a fresh
// instance, a new epoch, no protocol data and no write log, then the
// protocol's InitSpace. Caller holds sp.eng, and
// every region of sp has been through resetRegion.
func (p *Proc) reinstall(sp *Space, info Info) {
	sp.install(info)
	sp.Epoch++
	sp.PData = nil
	sp.takeLog()
	p.rec.SetProtocol(sp.ID, info.Name)
	sp.Proto.InitSpace(sp.ctx, sp)
}

// FreeSpace destroys sp and recycles its table slot. It is a collective
// operation: every processor must call it, in the same program order,
// for the same space. It opens with quiesce, as a protocol change does:
// a space whose regions only their homes ever touched is freed without
// a message beyond the verifying round. Then every region of the space
// is deleted from the region table, and the table slot is nilled with its
// generation bumped. FreeSpace does not wait for the other processors
// to finish: the next NewSpace that takes the recycled slot does, in
// its verifying round.
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
	t := p.rec.Begin()
	if err := p.quiesce(fmt.Sprintf("freespace:%d:%d", sp.ID, sp.Gen), sp); err != nil {
		return err
	}
	// A region still inside a bracket, holding queued coherence work, or
	// with the region lock held means the caller broke the quiescence
	// contract.
	sp.eng.Lock()
	purged := sp.regions
	for _, r := range purged {
		if r.InUse() {
			panic(fmt.Sprintf("core: proc %d: FreeSpace with open sections on %v", p.id, r.ID))
		}
		p.assertQuiescent("FreeSpace", r)
		if r.Dir != nil {
			if holder, _ := r.Dir.lockState(); holder >= 0 {
				panic(fmt.Sprintf("core: proc %d: FreeSpace with held region lock on %v", p.id, r.ID))
			}
		}
	}
	sp.regions, sp.log = nil, nil
	sp.dead.Store(true)
	sp.eng.Unlock()
	for id, h := range p.hints {
		if h.space == sp.ID {
			delete(p.hints, id)
		}
	}
	p.regMu.Lock()
	for _, r := range purged {
		p.regions.Delete(r.ID)
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
	sp.done(trace.OpFreeSpace, t)
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
