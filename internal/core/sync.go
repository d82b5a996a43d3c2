package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"github.com/acedsm/ace/internal/amnet"
)

// This file implements the runtime's synchronization substrate: the
// barrier, home-based region locks, and the bootstrap collectives
// (broadcast and all-reduce) applications use to distribute region ids
// and combine scalars.
//
// Collectives route through a binomial tree rooted at processor 0: rank
// v's parent is v with its lowest set bit cleared, its children are
// v+1, v+2, v+4, ... within its subtree. Every collective is one
// engine: a tree round, a reduce-up/fan-down of O(log P) depth with no
// node sending more than ⌈log₂ P⌉ messages per wave. A barrier is a
// round with no payload, and a broadcast is a round whose one non-empty
// contribution is the root's. Every node folds contributions in the
// same canonical order (own value, then each child subtree in
// increasing rank), so a result's bits do not depend on message timing,
// even for the non-associative float sum.

// treeParentOf returns the binomial-tree parent of rank v (root 0): v
// with its lowest set bit cleared.
func treeParentOf(v int) int { return v & (v - 1) }

// treeKidsOf appends the binomial-tree children of rank v in a cluster
// of n ranks, in increasing order. Rank v's subtree spans [v, v+lsb(v))
// (the whole cluster for the root), so its children are v+1, v+2, v+4,
// ... below that bound, clipped to n.
func treeKidsOf(v, n int) []int {
	limit := v & -v
	if v == 0 {
		limit = n
	}
	var kids []int
	for step := 1; step < limit && v+step < n; step <<= 1 {
		kids = append(kids, v+step)
	}
	return kids
}

// purgeSyncState drops every pending synchronization record after a
// peer loss: open tree rounds and home-region lock queues. The blocked
// local waits have already failed (or will fail) with ErrPeerLost via
// downCh; without the purge their records would strand in the tables,
// and a late arrival from a surviving peer would repopulate them — the
// arrival paths drop messages once downPeer is set, checked under the
// same locks, so the tables stay empty. LockHolder is left as is: the
// holder may be alive, and the cluster is unusable regardless.
func (p *Proc) purgeSyncState() {
	p.treeMu.Lock()
	for _, rd := range p.rounds {
		for _, v := range rd.vals {
			amnet.Recycle(v)
		}
	}
	clear(p.rounds)
	p.treeMu.Unlock()
	p.regMu.Lock()
	p.regions.ForEach(func(_ RegionID, r *Region) {
		if r.Dir != nil {
			r.Dir.lockMu.Lock()
			r.Dir.LockQueue = nil
			r.Dir.lockMu.Unlock()
		}
	})
	p.regMu.Unlock()
}

// lockRequest handles a region lock request at the region's home. The
// directory's lock fields (LockHolder, LockQueue) are under the
// directory's lockMu, which the handler shares with the peer-down purge
// and the application thread's space-wide resets. The grant is sent
// after lockMu is released.
func (p *Proc) lockRequest(m amnet.Msg) {
	r := p.regions.Get(RegionID(m.A))
	if r == nil || !r.IsHome() {
		panic(fmt.Sprintf("core: proc %d: lock request for non-home region %v", p.id, RegionID(m.A)))
	}
	d := r.Dir
	d.lockMu.Lock()
	if p.downPeer.Load() >= 0 {
		// Purged (see purgeSyncState): don't queue new waiters — the
		// requester's Wait fails with ErrPeerLost.
		d.lockMu.Unlock()
		return
	}
	if d.LockHolder < 0 {
		d.LockHolder = m.Src
		d.lockMu.Unlock()
		p.ep.Send(amnet.Msg{Dst: m.Src, Handler: hComplete, B: m.B})
		return
	}
	d.LockQueue = append(d.LockQueue, lockWaiter{src: m.Src, seq: m.B})
	d.lockMu.Unlock()
}

// unlockRequest handles a region unlock at the region's home. Same
// lockMu discipline as lockRequest. A home's unlock of its own region
// stays held state until handled (selfDone).
func (p *Proc) unlockRequest(m amnet.Msg) {
	defer p.selfDone(m.Src)
	r := p.regions.Get(RegionID(m.A))
	if r == nil || !r.IsHome() {
		panic(fmt.Sprintf("core: proc %d: unlock for non-home region %v", p.id, RegionID(m.A)))
	}
	d := r.Dir
	d.lockMu.Lock()
	if d.LockHolder != m.Src {
		holder := d.LockHolder
		d.lockMu.Unlock()
		panic(fmt.Sprintf("core: proc %d: unlock of %v by %d, holder %d", p.id, r.ID, m.Src, holder))
	}
	if len(d.LockQueue) == 0 {
		d.LockHolder = -1
		d.lockMu.Unlock()
		return
	}
	next := d.LockQueue[0]
	d.LockQueue = d.LockQueue[1:]
	d.LockHolder = next.src
	d.lockMu.Unlock()
	p.ep.Send(amnet.Msg{Dst: next.src, Handler: hComplete, B: next.seq})
}

// Collective operation codes (field C of hColl messages). A tree
// round's up-wave carries its combining code — collOpBarrier for a
// barrier, which has no payload, collOpBcast for a broadcast — and its
// down-wave collOpResult.
const (
	collOpBcast uint64 = iota
	collOpSumI
	collOpMinI
	collOpMaxI
	collOpSumF
	collOpMinF
	collOpMaxF
	collOpResult
	collOpBarrier
	collOpVerify
)

// The flag word of a collOpVerify payload, which precedes the tag.
const (
	verifyFlag     uint64 = 1 << iota // OR of the processors' flags
	verifyMismatch                    // some tag in the subtree differs
)

// collDeliver handles a collective message and owns its payload: a
// result wave ends a tree round; anything else is a child subtree's
// contribution to one.
func (p *Proc) collDeliver(m amnet.Msg) {
	if m.C != collOpResult {
		p.treeFold(m.A, m.C, m.Src, m.Payload, 0)
		return
	}
	p.treeMu.Lock()
	rd := p.rounds[m.A]
	var seq uint64
	if rd != nil {
		seq = rd.seq
		p.closeRound(m.A, rd)
	}
	p.treeMu.Unlock()
	if rd == nil {
		// Only possible after a peer-down purge dropped the round; the
		// result wave dies here (the local waiter failed with
		// ErrPeerLost).
		amnet.Recycle(m.Payload)
		return
	}
	p.treeRelease(m.A, seq, m.Payload)
}

// treeRound is one open round's state at one node of the collective
// tree (under treeMu): the local waiter, the contributions folded so
// far, and one payload slot per contributor in canonical combine order
// — own value first, then each child subtree's partial in increasing
// rank — so combining left to right at every level gives bits that do
// not depend on arrival order. A barrier's slots stay nil. A complete
// round is reset at once (only seq stays meaningful), so the round that
// leaves the table goes straight onto the free list (roundFree).
type treeRound struct {
	seq   uint64
	count int
	vals  [][]byte
}

// openRound returns round tag, opening it — from the free list when it
// can — if it is not in the table yet. The caller holds treeMu.
func (p *Proc) openRound(tag uint64) *treeRound {
	rd := p.rounds[tag]
	if rd == nil {
		if n := len(p.roundFree); n > 0 {
			rd, p.roundFree = p.roundFree[n-1], p.roundFree[:n-1]
		} else {
			rd = &treeRound{vals: make([][]byte, len(p.treeKids)+1)}
		}
		p.rounds[tag] = rd
	}
	return rd
}

// closeRound removes the reset round rd from the table and frees it.
// The caller holds treeMu.
func (p *Proc) closeRound(tag uint64, rd *treeRound) {
	delete(p.rounds, tag)
	p.roundFree = append(p.roundFree, rd)
}

// treeRun runs the tree round tagged collSeq on the application
// thread: fold the local contribution (buf, which the engine takes) and
// block until the result wave returns the combined payload. The wait
// releases c's engine lock, if any, as every Ctx.Wait does.
func (c *Ctx) treeRun(code uint64, buf []byte) []byte {
	seq := c.NewWaiter()
	c.p.treeFold(c.p.collSeq, code, c.p.id, buf, seq)
	return c.Wait(seq).Payload
}

// treeFold folds one contribution to round tag — the local application
// thread's (src == p.id, carrying its waiter seq) or a child subtree's —
// and, once the subtree is complete, combines it and propagates: up to
// the parent, or into the result wave at the root. Registering the local
// waiter here is safe: the result cannot reach this node before its
// subtree partial, which holds the local value, has climbed to the root.
// Rounds are keyed by tag because they overlap: a subtree already
// released from one round can contribute to the next while the first
// round's result is still fanning out elsewhere. val is owned by the
// engine from here on. Sends go out after treeMu is released — Send can
// block on transport backpressure, or run the destination's handler then
// and there.
func (p *Proc) treeFold(tag, code uint64, src amnet.NodeID, val []byte, seq uint64) {
	p.treeMu.Lock()
	if p.downPeer.Load() >= 0 {
		// A peer is lost and the purge ran or is about to: drop the
		// contribution rather than repopulate the table (the local
		// waiter fails with ErrPeerLost).
		p.treeMu.Unlock()
		amnet.Recycle(val)
		return
	}
	rd := p.openRound(tag)
	slot := 0
	if src == p.id {
		rd.seq = seq
	} else {
		slot = 1 + p.kidSlot(src)
	}
	rd.vals[slot] = val
	rd.count++
	if rd.count < len(rd.vals) {
		p.treeMu.Unlock()
		return
	}
	part := rd.vals[0]
	for _, v := range rd.vals[1:] {
		part = combine(code, part, v)
	}
	clear(rd.vals)
	rd.count = 0
	root := p.treeParent < 0
	if root {
		// The root releases at once; an interior node keeps the round
		// until the result wave returns (it carries the waiter seq).
		seq = rd.seq
		p.closeRound(tag, rd)
	}
	p.treeMu.Unlock()
	if root {
		p.treeRelease(tag, seq, part)
		return
	}
	p.coll.CountHops(1, len(part))
	// part is a pooled buffer this node owns; on a by-reference fabric
	// ownership passes to the parent's handler, on a copying fabric Send
	// is done with it when it returns.
	p.ep.Send(amnet.Msg{Dst: p.treeParent, Handler: hColl, A: tag, C: code, Payload: part})
	if p.fabricCopies {
		amnet.Recycle(part)
	}
}

// treeRelease fans a round's result to this node's subtrees and hands
// it to the local waiter, which owns res from then on.
func (p *Proc) treeRelease(tag, seq uint64, res []byte) {
	p.sendFan(p.treeKids, amnet.Msg{Handler: hColl, A: tag, C: collOpResult, Payload: res})
	p.ctx.Complete(seq, amnet.Msg{Payload: res})
}

// kidSlot returns src's index among this node's tree children.
func (p *Proc) kidSlot(src amnet.NodeID) int {
	for i, k := range p.treeKids {
		if k == src {
			return i
		}
	}
	panic(fmt.Sprintf("core: proc %d: contribution from %d, not a tree child", p.id, src))
}

// sendFan delivers one collective message to each destination, each
// send with its own payload (cloneForSend), so the caller keeps
// ownership of m.Payload and every receiver owns what it is delivered.
// Fan-out hops and bytes are counted here.
func (p *Proc) sendFan(dsts []amnet.NodeID, m amnet.Msg) {
	p.coll.CountHops(len(dsts), len(dsts)*len(m.Payload))
	for _, d := range dsts {
		mm := m
		mm.Dst = d
		mm.Payload = p.cloneForSend(m.Payload)
		p.ep.Send(mm)
	}
}

// Broadcast distributes data from the root processor to all processors and
// returns it. It is collective: every processor must call it in the same
// program order. The root's data argument is the value broadcast; other
// processors may pass nil. It is one tree round in which only the root
// contributes, so it costs what a barrier does, and every processor,
// the root included, returns a copy of its own. A root outside [0, P)
// panics.
func (p *Proc) Broadcast(root int, data []byte) []byte {
	if root < 0 || root >= p.cl.Procs() {
		panic(fmt.Sprintf("core: Broadcast root %d outside [0, %d)", root, p.cl.Procs()))
	}
	var buf []byte
	if int(p.id) == root {
		buf = clone(data) // the engine recycles what it folds
	}
	// collSeq is application-thread-private; no lock needed for the tag.
	p.collSeq++
	p.coll.CountBcast()
	return p.ctx.treeRun(collOpBcast, buf)
}

// BroadcastID broadcasts a region id from root: a one-element
// BroadcastIDs.
func (p *Proc) BroadcastID(root int, id RegionID) RegionID {
	return p.BroadcastIDs(root, []RegionID{id})[0]
}

// bcastIDBytes is one id's entry in a BroadcastIDs payload: the id, then
// the size and space id of the root's view of the region (both zero when
// the root has none).
const bcastIDBytes = 16

// BroadcastIDs broadcasts a slice of region ids from root. Non-root
// processors may pass nil; all processors must agree on the length only at
// the root. Each id carries the size and space of the root's view of its
// region, so a receiver that is not the home and has no view yet creates
// one here, and its first Map of the region sends no lookup. An id the
// root has no view of is left to that lookup.
func (p *Proc) BroadcastIDs(root int, ids []RegionID) []RegionID {
	var buf []byte
	if int(p.id) == root {
		buf = make([]byte, bcastIDBytes*len(ids))
		for i, id := range ids {
			e := buf[i*bcastIDBytes:]
			binary.LittleEndian.PutUint64(e, uint64(id))
			if r := p.regions.Get(id); r != nil {
				binary.LittleEndian.PutUint32(e[8:], uint32(r.Size))
				binary.LittleEndian.PutUint32(e[12:], uint32(r.Space.ID))
			}
		}
	}
	out := p.Broadcast(root, buf)
	defer amnet.Recycle(out)
	res := make([]RegionID, len(out)/bcastIDBytes)
	for i := range res {
		e := out[i*bcastIDBytes:]
		id := RegionID(binary.LittleEndian.Uint64(e))
		res[i] = id
		size := int(binary.LittleEndian.Uint32(e[8:]))
		if size == 0 || amnet.NodeID(id.Home()) == p.id || p.regions.Get(id) != nil {
			continue
		}
		sp := p.space(int(binary.LittleEndian.Uint32(e[12:])))
		sp.eng.Lock()
		p.materialize(id, size, sp)
		sp.eng.Unlock()
	}
	return res
}

// ReduceOp selects the combining operator for AllReduce collectives.
type ReduceOp int

// The supported reduction operators.
const (
	OpSum ReduceOp = iota
	OpMin
	OpMax
)

// reduceCode returns op's wire code in the int64 family, or with float
// set in the float64 one. An op that is not OpSum, OpMin or OpMax
// panics: every processor passes the same op, so all of them fail
// before sending anything rather than combining under the wrong code.
func reduceCode(op ReduceOp, float bool) uint64 {
	var code uint64
	switch op {
	case OpSum:
		code = collOpSumI
	case OpMin:
		code = collOpMinI
	case OpMax:
		code = collOpMaxI
	default:
		panic(fmt.Sprintf("core: AllReduce op %d is not OpSum, OpMin or OpMax", op))
	}
	if float {
		code += collOpSumF - collOpSumI // same order in both families
	}
	return code
}

// AllReduceInt64 combines v across all processors with op and returns the
// result on every processor. Collective.
func (p *Proc) AllReduceInt64(op ReduceOp, v int64) int64 {
	return int64(p.allReduce(reduceCode(op, false), uint64(v)))
}

// AllReduceInt64s combines each element of v across all processors with
// op — element-wise, in a single collective round — and returns the
// combined vector on every processor. All processors must pass the same
// length. One round costs the same as one scalar AllReduceInt64, which
// is the point: callers combining a feature vector (the adaptive
// controller reduces seven counters per epoch) pay one round trip, not
// seven. Collective.
func (p *Proc) AllReduceInt64s(op ReduceOp, v []int64) []int64 {
	code := reduceCode(op, false)
	buf := amnet.Alloc(8 * len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(x))
	}
	out := p.reduceRound(code, buf)
	res := make([]int64, len(out)/8)
	for i := range res {
		res[i] = int64(binary.LittleEndian.Uint64(out[i*8:]))
	}
	amnet.Recycle(out)
	return res
}

// reduceRound runs one all-reduce round over a word-vector payload,
// which the engine takes, and returns the pooled result.
func (p *Proc) reduceRound(code uint64, buf []byte) []byte {
	p.collSeq++
	p.coll.CountReduce()
	return p.ctx.treeRun(code, buf)
}

// AllReduceFloat64 combines v across all processors with op and returns
// the result on every processor. Collective.
func (p *Proc) AllReduceFloat64(op ReduceOp, v float64) float64 {
	return math.Float64frombits(p.allReduce(reduceCode(op, true), math.Float64bits(v)))
}

func (p *Proc) allReduce(code uint64, word uint64) uint64 {
	buf := amnet.Alloc(8)
	binary.LittleEndian.PutUint64(buf, word)
	out := p.reduceRound(code, buf)
	res := binary.LittleEndian.Uint64(out)
	amnet.Recycle(out)
	return res
}

// combine folds src into dst with the operator in code and returns the
// result. It owns both buffers and recycles the one it does not return.
// A broadcast keeps whichever of the two is non-empty: only the root
// contributes a payload. A barrier's buffers are empty.
func combine(code uint64, dst, src []byte) []byte {
	switch code {
	case collOpBcast:
		if len(dst) == 0 {
			dst, src = src, dst
		}
	case collOpVerify:
		combineVerify(dst, src)
	default:
		for e := 0; e+8 <= len(dst); e += 8 {
			a := binary.LittleEndian.Uint64(dst[e:])
			b := binary.LittleEndian.Uint64(src[e:])
			var acc uint64
			switch code {
			case collOpSumI:
				acc = uint64(int64(a) + int64(b))
			case collOpMinI:
				acc = uint64(min(int64(a), int64(b)))
			case collOpMaxI:
				acc = uint64(max(int64(a), int64(b)))
			case collOpSumF:
				acc = math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
			case collOpMinF:
				acc = math.Float64bits(math.Min(math.Float64frombits(a), math.Float64frombits(b)))
			case collOpMaxF:
				acc = math.Float64bits(math.Max(math.Float64frombits(a), math.Float64frombits(b)))
			default:
				panic(fmt.Sprintf("core: bad reduction code %d", code))
			}
			binary.LittleEndian.PutUint64(dst[e:], acc)
		}
	}
	amnet.Recycle(src)
	return dst
}

// combineVerify folds a child subtree's verifyRound contribution into
// dst: the flag words are ORed, and a tag that differs from dst's in
// length or any byte sets verifyMismatch. dst keeps its own tag, so a
// round's result carries the root's.
func combineVerify(dst, src []byte) {
	w := binary.LittleEndian.Uint64(dst) | binary.LittleEndian.Uint64(src)
	if !bytes.Equal(dst[8:], src[8:]) {
		w |= verifyMismatch
	}
	binary.LittleEndian.PutUint64(dst, w)
}
