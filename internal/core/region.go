package core

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/memory"
)

// RegionID re-exports memory.RegionID for convenience.
type RegionID = memory.RegionID

// RegionData re-exports memory.Data: a byte view with typed accessors.
type RegionData = memory.Data

// Region is one processor's view of a shared region. Mutable fields are
// protected by the owning space's engine lock (Space.eng), except the
// hot word, which also admits the bracket fast path's lock-free CAS
// transitions (see hot word layout below). The State, PState and Flags
// fields belong to the space's protocol; the runtime zeroes them when the
// protocol changes.
type Region struct {
	ID RegionID
	// Home is the processor that allocated the region, the one its id
	// encodes. It is fixed at materialisation, like ID, Size and Space,
	// so it is read without a lock.
	Home amnet.NodeID
	Size int
	Data memory.Data

	// Space is the space the region was allocated from.
	Space *Space

	// MapCount is the number of outstanding maps; maintained by the
	// runtime's Map and Unmap on the application thread, which alone
	// touches it (no lock). Cached copies survive unmapping (CRL-style
	// unmapped-region caching), so MapCount==0 does not imply the copy is
	// invalid.
	MapCount int

	// hot packs the region's runtime-visible hot state into one atomic
	// word so a bracket hit is a single CAS (see the rw* layout
	// constants): the open-section counts, the fast-path eligibility
	// bits the space's protocol publishes, and the written bit that
	// keeps the region on its space's write log once. Counts and the
	// written bit are mutated only by the application thread (fast CAS
	// or slow-path update); the eligibility bits are cleared and
	// republished by whichever thread holds the engine lock.
	hot atomic.Uint64

	// State is protocol-defined (for the SC protocol: Invalid, Shared,
	// Exclusive).
	State int32

	// Flags is protocol-defined transient state (deferred invalidations
	// and the like).
	Flags uint32

	// PState is arbitrary per-region protocol data.
	PState any

	// Dir is the coherence directory; non-nil exactly at the home.
	Dir *Directory
}

// The hot word layout. One 64-bit word carries everything the bracket
// fast path and the protocol's section checks need, so a single
// CompareAndSwap is a linearization point for both:
//
//	bits  0–15  open read sections (Readers)
//	bits 16–31  open write sections (Writers)
//	bit  32     fast-path-eligible for read brackets (FastRead)
//	bit  33     fast-path-eligible for write brackets (FastWrite)
//	bit  34     fast-path-eligible for write brackets whose close logs
//	            the region (FastWriteLogged)
//	bit  48     written: the region is on its space's write log
//
// ABA on the word is benign: the entire decision state of a fast
// bracket (eligibility bit plus count) lives in the word itself, so any
// successful CAS observed a word for which the transition is valid,
// regardless of intervening history. The written bit is set and cleared
// only by the application thread, which also owns the write log, so the
// bit and the log agree whenever that thread looks.
const (
	rwReaderShift = 0
	rwWriterShift = 16
	rwCountMask   = uint64(0xffff)
	rwFastShift   = 32
	rwFastRead    = uint64(FastRead) << rwFastShift
	rwFastWrite   = uint64(FastWrite) << rwFastShift
	rwFastLogged  = uint64(FastWriteLogged) << rwFastShift
	rwFastWrites  = rwFastWrite | rwFastLogged
	rwFastMask    = rwFastRead | rwFastWrites
	rwWritten     = uint64(1) << 48
	rwInUseMask   = rwCountMask<<rwReaderShift | rwCountMask<<rwWriterShift
)

// FastBits is the set of bracket kinds a protocol declares hit-eligible
// for a region in its current state. Publishing FastRead (FastWrite) is
// the protocol's promise that, until the bit is withdrawn, its
// StartRead/EndRead (StartWrite/EndWrite) routines are no-ops for the
// region and r.Data is valid for reading (writing) — so the runtime may
// complete the bracket with a lock-free count transition and never
// enter the protocol. FastWriteLogged promises the same for StartWrite,
// and that EndWrite only puts the region on the write log
// (Ctx.LogWrite), which the fast close then does itself.
type FastBits uint8

// The fast-path eligibility bits.
const (
	FastRead FastBits = 1 << iota
	FastWrite
	FastWriteLogged
)

// IsHome reports whether this processor is the region's home.
func (r *Region) IsHome() bool { return r.Dir != nil }

// Readers returns the number of open read sections.
func (r *Region) Readers() int { return int(r.hot.Load() >> rwReaderShift & rwCountMask) }

// Writers returns the number of open write sections.
func (r *Region) Writers() int { return int(r.hot.Load() >> rwWriterShift & rwCountMask) }

// InUse reports whether the region has an open read or write section.
func (r *Region) InUse() bool { return r.hot.Load()&rwInUseMask != 0 }

// tryFastStart attempts the lock-free bracket-open transition for the
// section kind counted at shift, gated on the eligibility bit. A single
// CAS attempt: any interference (bit withdrawn, concurrent engine
// update, count saturation) falls back to the locked slow path.
func (r *Region) tryFastStart(bit uint64, shift uint) bool {
	w := r.hot.Load()
	if w&bit == 0 || w>>shift&rwCountMask == rwCountMask {
		return false
	}
	return r.hot.CompareAndSwap(w, w+1<<shift)
}

// tryFastEnd attempts the lock-free bracket-close transition. The count
// guard routes unbalanced closes to the slow path, which panics with
// the diagnostic.
func (r *Region) tryFastEnd(bit uint64, shift uint) bool {
	w := r.hot.Load()
	if w&bit == 0 || w>>shift&rwCountMask == 0 {
		return false
	}
	return r.hot.CompareAndSwap(w, w-1<<shift)
}

// tryFastEndWrite is tryFastEnd for write sections, gated on either
// write eligibility bit. Under FastWriteLogged the closing CAS also sets
// the written bit; logged reports that this CAS is the one that set it,
// so the caller must append the region to its space's write log.
func (r *Region) tryFastEndWrite() (ok, logged bool) {
	w := r.hot.Load()
	if w&rwFastWrites == 0 || w>>rwWriterShift&rwCountMask == 0 {
		return false, false
	}
	nw := w - 1<<rwWriterShift
	if w&rwFastLogged != 0 {
		nw |= rwWritten
	}
	if !r.hot.CompareAndSwap(w, nw) {
		return false, false
	}
	return true, w&rwWritten != nw&rwWritten
}

// tryFastEndWriteBare is tryFastEndWrite for the Bare close, which keeps
// no count: under FastWriteLogged it only sets the written bit.
func (r *Region) tryFastEndWriteBare() (ok, logged bool) {
	w := r.hot.Load()
	if w&rwFastWrites == 0 {
		return false, false
	}
	if w&rwFastLogged == 0 || w&rwWritten != 0 {
		return true, false
	}
	if !r.hot.CompareAndSwap(w, w|rwWritten) {
		return false, false
	}
	return true, true
}

// fastEligible reports whether an eligibility bit in mask is currently
// published — the entire fast path for the Bare bracket variants that
// keep no section counts and log nothing.
func (r *Region) fastEligible(mask uint64) bool { return r.hot.Load()&mask != 0 }

// adjSections adjusts an open-section count from the locked slow path.
// Only the application thread mutates counts (the SPMD model: one
// application thread per processor), so a blind atomic add cannot race
// with another count mutation; concurrent eligibility-bit CASes from
// the engine side compose with it because both are atomic RMWs. Callers
// guard against underflow (count already checked > 0) so the
// subtraction cannot borrow into adjacent fields; overflow of a 16-bit
// count would need 65535 simultaneously open sections on one thread.
func (r *Region) adjSections(delta int64, shift uint) {
	r.hot.Add(uint64(delta) << shift)
}

// disableFast atomically withdraws the eligibility bits. After it
// returns, no fast bracket can commit until a republish, and every fast
// transition that committed before it is visible in the counts — the
// ordering the engine relies on when it checks InUse/Readers/Writers
// before acting on a region (a concurrent fast close either lands
// before the withdrawal and is visible, or its CAS fails and the close
// retries through the locked slow path).
func (r *Region) disableFast() { r.clearBits(rwFastMask) }

// clearBits atomically clears the bits of mask in the hot word.
func (r *Region) clearBits(mask uint64) {
	for {
		w := r.hot.Load()
		if w&mask == 0 || r.hot.CompareAndSwap(w, w&^mask) {
			return
		}
	}
}

// setWritten sets the written bit, reporting whether this call set it.
// Application thread only (the write log's owner).
func (r *Region) setWritten() bool {
	for {
		w := r.hot.Load()
		if w&rwWritten != 0 {
			return false
		}
		if r.hot.CompareAndSwap(w, w|rwWritten) {
			return true
		}
	}
}

// publishFast installs the eligibility bits. Caller holds the region's
// space engine lock (which serializes publishers); the loop absorbs
// concurrent count CASes from the application thread's fast path.
func (r *Region) publishFast(bits FastBits) {
	for {
		w := r.hot.Load()
		nw := w&^rwFastMask | uint64(bits)<<rwFastShift
		if w == nw || r.hot.CompareAndSwap(w, nw) {
			return
		}
	}
}

// Directory is the per-region coherence directory kept at the home. The
// generic fields (lock queue) are managed by the runtime; Sharers, Owner,
// Busy, Waiting, PendingAcks and PData belong to the protocol.
type Directory struct {
	// Sharers is the set of processors with (potentially) valid cached
	// copies, excluding the home.
	Sharers Bitset

	// Owner is the processor holding the region exclusively, or -1. When
	// Owner >= 0 the home copy is stale.
	Owner amnet.NodeID

	// Busy marks a multi-message transaction in progress; new requests
	// queue on Waiting.
	Busy bool

	// Waiting holds queued coherence requests, served FIFO.
	Waiting []PendingReq

	// Cur is the request the current transaction serves (valid while
	// Busy).
	Cur PendingReq

	// PendingAcks counts outstanding invalidation acknowledgements for
	// the current transaction.
	PendingAcks int

	// PData is arbitrary per-region protocol directory data.
	PData any

	// Lock state, managed by the runtime's default region lock. Under
	// lockMu, a leaf lock: the lock and unlock handlers share it with the
	// peer-down purge and the application thread's space-wide resets,
	// and nothing else is acquired while it is held.
	lockMu     sync.Mutex
	LockHolder amnet.NodeID // -1 when free
	LockQueue  []lockWaiter
}

// NewDirectory returns a directory in the base state.
func NewDirectory() *Directory {
	return &Directory{Owner: -1, LockHolder: -1}
}

// ResetCoherence returns the protocol-owned directory fields to the base
// state, preserving lock state.
func (d *Directory) ResetCoherence() {
	d.Sharers = 0
	d.Owner = -1
	d.Busy = false
	d.Waiting = nil
	d.PendingAcks = 0
	d.PData = nil
}

// lockState reads the region lock's holder and queue length.
func (d *Directory) lockState() (holder amnet.NodeID, queued int) {
	d.lockMu.Lock()
	defer d.lockMu.Unlock()
	return d.LockHolder, len(d.LockQueue)
}

// PendingReq is a queued coherence request at the home: either a remote
// request (Src, Seq identify the requester's waiter) or a home-local
// request (Src == home).
type PendingReq struct {
	Kind int
	Src  amnet.NodeID
	Seq  uint64
}

type lockWaiter struct {
	src amnet.NodeID
	seq uint64
}

// Bitset is a set of processor ids, supporting up to 64 processors (the
// paper's evaluation used 32).
type Bitset uint64

// MaxProcs is the largest supported cluster size.
const MaxProcs = 64

// Add inserts node n.
func (b *Bitset) Add(n amnet.NodeID) { *b |= 1 << uint(n) }

// Remove deletes node n.
func (b *Bitset) Remove(n amnet.NodeID) { *b &^= 1 << uint(n) }

// Has reports whether node n is present.
func (b Bitset) Has(n amnet.NodeID) bool { return b&(1<<uint(n)) != 0 }

// Count returns the number of members.
func (b Bitset) Count() int { return bits.OnesCount64(uint64(b)) }

// Empty reports whether the set has no members.
func (b Bitset) Empty() bool { return b == 0 }

// ForEach calls fn for each member in increasing order.
func (b Bitset) ForEach(fn func(amnet.NodeID)) {
	for v := uint64(b); v != 0; {
		n := bits.TrailingZeros64(v)
		fn(amnet.NodeID(n))
		v &^= 1 << uint(n)
	}
}
