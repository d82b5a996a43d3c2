// Package memory provides region identifiers, per-processor region tables
// and typed accessors over raw region bytes.
//
// A region is the unit of coherence in the Ace runtime: an arbitrarily
// sized, contiguous block of bytes with a unique id whose high bits encode
// the region's home node. Regions are allocated by their home, so ids are
// unique without global coordination and region tables can be dense
// two-level arrays rather than hash maps — the "more efficient mapping
// technique" the paper credits for Ace's edge over CRL on fine-grained
// applications.
package memory

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync/atomic"
)

// RegionID uniquely names a shared region. The top 24 bits hold the home
// node, the low 40 bits the home-local allocation sequence number. The zero
// RegionID is reserved as "no region".
type RegionID uint64

const seqBits = 40

// MakeID builds a region id from a home node and a home-local sequence
// number. Sequence numbers start at 1; MakeID panics on 0 so that the zero
// RegionID stays reserved.
func MakeID(home int32, seq uint64) RegionID {
	if seq == 0 || seq >= 1<<seqBits {
		panic(fmt.Sprintf("memory: sequence %d out of range", seq))
	}
	if home < 0 {
		panic(fmt.Sprintf("memory: negative home %d", home))
	}
	return RegionID(uint64(home)<<seqBits | seq)
}

// Home returns the home node encoded in the id.
func (id RegionID) Home() int32 { return int32(id >> seqBits) }

// Seq returns the home-local sequence number encoded in the id.
func (id RegionID) Seq() uint64 { return uint64(id) & (1<<seqBits - 1) }

// IsZero reports whether id is the reserved "no region" value.
func (id RegionID) IsZero() bool { return id == 0 }

func (id RegionID) String() string {
	if id.IsZero() {
		return "region<nil>"
	}
	return fmt.Sprintf("region<%d:%d>", id.Home(), id.Seq())
}

// Table is a per-processor two-level region table mapping RegionID to a
// *T (nil means "absent"): one row per home node, indexed by sequence
// number. Lookup is two array indexing operations; no hashing.
//
// Get is lock-free and safe concurrently with everything else: every
// level is an atomic pointer (a plain load on amd64), and a level that
// must grow is copied and republished rather than resized in place, so a
// reader always indexes a complete slice. Put, Delete, Len and ForEach
// must be serialized by the caller (the writers' mutex); a Get racing a
// writer sees the entry either before or after the write. The zero Table
// is ready to use.
type Table[T any] struct {
	homes atomic.Pointer[[]*tableRow[T]]
	count int
}

// tableRow is one home's slots. The slice pointer is set when the row
// is created, so readers never find it nil; growing the row publishes a
// fresh, larger slice with the live entries copied in.
type tableRow[T any] struct {
	slots atomic.Pointer[[]atomic.Pointer[T]]
}

// Get returns the value for id, or nil if absent.
func (t *Table[T]) Get(id RegionID) *T {
	h, s := uint64(id)>>seqBits, uint64(id)&(1<<seqBits-1)
	if homes := t.homes.Load(); homes != nil && h < uint64(len(*homes)) {
		if slots := *(*homes)[h].slots.Load(); s < uint64(len(slots)) {
			return slots[s].Load()
		}
	}
	return nil
}

// Put stores v for id, growing the table as needed. A nil v deletes.
func (t *Table[T]) Put(id RegionID, v *T) {
	if v == nil && t.Get(id) == nil {
		return // nothing to delete: do not grow for it
	}
	switch old := t.cell(id).Swap(v); {
	case old == nil && v != nil:
		t.count++
	case old != nil && v == nil:
		t.count--
	}
}

// cell returns id's slot, growing the table to make room: a short home
// level or row is replaced by a larger copy, published only once it
// holds every live entry.
func (t *Table[T]) cell(id RegionID) *atomic.Pointer[T] {
	h := int(id.Home())
	var homes []*tableRow[T]
	if p := t.homes.Load(); p != nil {
		homes = *p
	}
	if h >= len(homes) {
		// Every new home gets its row now: cells of a published home
		// slice are never written again.
		grown := make([]*tableRow[T], h+1)
		copy(grown, homes)
		for i := len(homes); i <= h; i++ {
			grown[i] = new(tableRow[T])
			grown[i].slots.Store(new([]atomic.Pointer[T]))
		}
		homes = grown
		t.homes.Store(&homes)
	}
	row := homes[h]
	slots := *row.slots.Load()
	s := id.Seq()
	if s >= uint64(len(slots)) {
		grown := make([]atomic.Pointer[T], max(int(s)+1, 2*len(slots), 8))
		for i := range slots {
			grown[i].Store(slots[i].Load())
		}
		slots = grown
		row.slots.Store(&slots)
	}
	return &slots[s]
}

// Delete removes the entry for id, if present.
func (t *Table[T]) Delete(id RegionID) { t.Put(id, nil) }

// Len returns the number of entries.
func (t *Table[T]) Len() int { return t.count }

// ForEach calls fn for every entry. Mutating the table during iteration
// is not allowed.
func (t *Table[T]) ForEach(fn func(RegionID, *T)) {
	homes := t.homes.Load()
	if homes == nil {
		return
	}
	for h, row := range *homes {
		slots := *row.slots.Load()
		for s := range slots {
			if v := slots[s].Load(); v != nil {
				fn(MakeID(int32(h), uint64(s)), v)
			}
		}
	}
}

// Data is a byte view of a region's storage with typed accessors. All
// multi-byte values use little-endian encoding, so region contents are
// well-defined across transports (including TCP between processes).
type Data []byte

// Float64 reads the i-th float64.
func (d Data) Float64(i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d[i*8:]))
}

// SetFloat64 writes the i-th float64.
func (d Data) SetFloat64(i int, v float64) {
	binary.LittleEndian.PutUint64(d[i*8:], math.Float64bits(v))
}

// Int64 reads the i-th int64.
func (d Data) Int64(i int) int64 {
	return int64(binary.LittleEndian.Uint64(d[i*8:]))
}

// SetInt64 writes the i-th int64.
func (d Data) SetInt64(i int, v int64) {
	binary.LittleEndian.PutUint64(d[i*8:], uint64(v))
}

// Uint64 reads the i-th uint64.
func (d Data) Uint64(i int) uint64 {
	return binary.LittleEndian.Uint64(d[i*8:])
}

// SetUint64 writes the i-th uint64.
func (d Data) SetUint64(i int, v uint64) {
	binary.LittleEndian.PutUint64(d[i*8:], v)
}

// Int32 reads the i-th int32.
func (d Data) Int32(i int) int32 {
	return int32(binary.LittleEndian.Uint32(d[i*4:]))
}

// SetInt32 writes the i-th int32.
func (d Data) SetInt32(i int, v int32) {
	binary.LittleEndian.PutUint32(d[i*4:], uint32(v))
}

// RegionID reads the i-th RegionID (stored as a uint64 slot). This is how
// shared pointers are represented in region storage.
func (d Data) RegionID(i int) RegionID { return RegionID(d.Uint64(i)) }

// SetRegionID writes the i-th RegionID slot.
func (d Data) SetRegionID(i int, id RegionID) { d.SetUint64(i, uint64(id)) }

// Words returns the number of 8-byte slots in the region.
func (d Data) Words() int { return len(d) / 8 }
