package core

import (
	"encoding/binary"
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
)

// This file implements per-destination aggregation of protocol push
// traffic. Update-family protocols emit one small message per (dirty
// region, sharer) pair at every barrier; a ProtoBatcher coalesces all
// pushes bound for the same destination into one multi-region frame
// with a single ack, turning R x S tiny messages into at most S frames
// per barrier — and handing the transport's coalescing writer real
// batch sizes.
//
// Ordering: an aggregated frame travels as one active message, so the
// per-(sender, handler) FIFO the fabric guarantees applies to the frame
// exactly as it applied to the individual pushes — every region record
// in it is ordered, as a unit, against the sender's other traffic.
//
// Wire format of a frame payload: repeated records of
// [region id u64][data size u32][data], little-endian. The message
// scalars carry A = record count, B = an optional protocol tag (for
// per-frame ack transactions), C = the protocol verb the records stand
// for, and D = the space id.

// ProtoBatcher accumulates per-destination frames. It is protocol-owned
// state, accessed under the space's engine lock like the rest of the
// protocol instance. Destination buffers are retained across barriers,
// so the steady state appends into warm memory.
type ProtoBatcher struct {
	sp    *Space
	verb  uint64
	bufs  map[amnet.NodeID]*batchBuf
	order []amnet.NodeID // destinations with pending records, in first-Add order
}

type batchBuf struct {
	data []byte
	n    int
}

// NewBatcher returns a batcher sending verb-frames on behalf of sp.
func (c *Ctx) NewBatcher(sp *Space, verb uint64) *ProtoBatcher {
	return &ProtoBatcher{sp: sp, verb: verb, bufs: make(map[amnet.NodeID]*batchBuf)}
}

// Add appends r's contents to the frame pending for dst.
func (b *ProtoBatcher) Add(dst amnet.NodeID, r *Region) {
	bb := b.bufs[dst]
	if bb == nil {
		bb = &batchBuf{}
		b.bufs[dst] = bb
	}
	if bb.n == 0 {
		b.order = append(b.order, dst)
	}
	var hdr [12]byte
	binary.LittleEndian.PutUint64(hdr[:8], uint64(r.ID))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(r.Data)))
	bb.data = append(bb.data, hdr[:]...)
	bb.data = append(bb.data, r.Data...)
	bb.n++
}

// Pending reports whether any records await a Flush.
func (b *ProtoBatcher) Pending() bool { return len(b.order) > 0 }

// Flush sends one frame per pending destination, in first-Add order,
// and returns the number of frames sent. When tag is non-nil it is
// called per frame and its result rides in the frame's B field (the
// hook protocols use to bind a frame to an ack transaction); nil sends
// B=0.
func (b *ProtoBatcher) Flush(c *Ctx, tag func(dst amnet.NodeID, regions int) uint64) int {
	frames := 0
	for _, dst := range b.order {
		bb := b.bufs[dst]
		var t uint64
		if tag != nil {
			t = tag(dst, bb.n)
		}
		c.p.coll.CountFrame(bb.n)
		c.p.selfSent(dst)
		c.p.ep.Send(amnet.Msg{
			Dst: dst, Handler: hProtoBatch,
			A: uint64(bb.n), B: t, C: b.verb, D: uint64(b.sp.ID),
			Payload: c.p.cloneForSend(bb.data),
		})
		bb.data = bb.data[:0]
		bb.n = 0
		frames++
	}
	b.order = b.order[:0]
	return frames
}

// BatchRecord is one region's slot in a decoded aggregate frame. Data
// aliases the wire buffer, which the runtime recycles after
// DeliverBatch returns: the protocol must consume it synchronously
// (copy into region data or clone into deferred state), exactly as with
// Deliver's payload.
type BatchRecord struct {
	R    *Region
	Data []byte
}

// BatchDeliverer is implemented by protocols that accept aggregated
// push frames (see ProtoBatcher). DeliverBatch is called under the
// space's engine lock, once per frame, with every record's fast-path
// bits already withdrawn — so the protocol sees consistent section
// counts and can acknowledge the whole frame with a single message.
type BatchDeliverer interface {
	DeliverBatch(ctx *Ctx, sp *Space, src amnet.NodeID, verb, tag uint64, recs []BatchRecord)
}

// decodeBatch splits an aggregate frame into per-region records,
// materializing regions unknown here and withdrawing each region's
// fast bits before the protocol examines section counts (the same
// discipline as the hProto handler). The records live in sp's scratch
// slice, valid until the next frame. Caller holds sp's engine lock.
func (p *Proc) decodeBatch(sp *Space, m amnet.Msg) []BatchRecord {
	recs := sp.batchRecs[:0]
	buf := m.Payload
	for len(buf) >= 12 {
		id := RegionID(binary.LittleEndian.Uint64(buf))
		size := int(binary.LittleEndian.Uint32(buf[8:]))
		buf = buf[12:]
		if size > len(buf) {
			panic(fmt.Sprintf("core: proc %d: truncated aggregate frame from %d (record %v wants %d of %d bytes)",
				p.id, m.Src, id, size, len(buf)))
		}
		r := sp.ctx.EnsureRegion(id, size, sp.ID)
		if r.Space != sp {
			panic(fmt.Sprintf("core: proc %d: aggregate frame record for %v names space %d, region is in %d",
				p.id, r.ID, sp.ID, r.Space.ID))
		}
		r.disableFast()
		recs = append(recs, BatchRecord{R: r, Data: buf[:size:size]})
		buf = buf[size:]
	}
	sp.batchRecs = recs
	if len(recs) != int(m.A) || len(buf) != 0 {
		panic(fmt.Sprintf("core: proc %d: malformed aggregate frame from %d: %d records decoded, header says %d, %d bytes left",
			p.id, m.Src, len(recs), m.A, len(buf)))
	}
	return recs
}
