package core

import (
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
// v+1, v+2, v+4, ... within its subtree, so every collective is one
// reduce-up/fan-down round of O(log P) depth with no node sending more
// than ⌈log₂ P⌉ messages per wave. Every node folds reduction
// contributions in the same canonical order (own value, then each child
// subtree in increasing rank), so a result's bits do not depend on
// message timing, even for the non-associative float sum.

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

// Barrier-wave subtypes (field C of hBarArrive messages).
const (
	barWaveUp   uint64 = 0 // a subtree completed; sent child -> parent
	barWaveDown uint64 = 1 // release wave; sent parent -> child
)

// barrierArrive handles a barrier message: a child subtree's arrival
// folds into this node's generation state and propagates, a release
// completes the local waiter and continues down. State is under barMu,
// which the handler shares with the application thread's own arrival
// (treeBarEvent) and with the peer-down purge, neither of which holds
// the dispatch token. Sends go out after barMu is released — Send can
// block on transport backpressure, and a late arrival for the next
// generation must not queue behind it.
func (p *Proc) barrierArrive(m amnet.Msg) {
	if m.C != barWaveDown {
		p.treeBarEvent(m.A, false, 0)
		return
	}
	p.barMu.Lock()
	tb := p.barTree[m.A]
	delete(p.barTree, m.A)
	p.barMu.Unlock()
	if tb == nil {
		// Only possible after a peer-down purge dropped the generation;
		// the release wave dies here (the local waiter already failed
		// with ErrPeerLost).
		return
	}
	p.treeBarRelease(m.A, tb.seq)
}

// treeBar is one generation's arrival state at one node of the
// collective tree (under barMu).
type treeBar struct {
	kids int    // child subtrees that completed
	own  bool   // the local application thread arrived
	seq  uint64 // local waiter, completed by the release wave
}

// purgeSyncState drops every pending synchronization record after a
// peer loss: barrier generations, in-flight reduction partials, and
// home-region lock queues. The blocked local waits have already failed
// (or will fail) with ErrPeerLost via downCh;
// without the purge their arrival records would strand in the tables,
// and a late arrival from a surviving peer would repopulate them — the
// arrival handlers drop messages once downPeer is set, checked under
// the same locks, so the tables stay empty. LockHolder is left as is:
// the holder may be alive, and the cluster is unusable regardless.
func (p *Proc) purgeSyncState() {
	p.barMu.Lock()
	clear(p.barTree)
	p.barMu.Unlock()
	p.accMu.Lock()
	clear(p.collAcc)
	p.accMu.Unlock()
	p.regMu.RLock()
	p.regions.ForEach(func(_ RegionID, r *Region) {
		if r.Dir != nil {
			r.Dir.lockMu.Lock()
			r.Dir.LockQueue = nil
			r.Dir.lockMu.Unlock()
		}
	})
	p.regMu.RUnlock()
}

// treeBarEvent folds one arrival event — the local application thread's
// (own=true, carrying its waiter seq) or a child subtree's — into the
// generation's state and, when the subtree is complete, propagates: up
// to the parent, or into the release wave at the root. Generations are
// keyed independently because they overlap: a subtree already released
// from generation g can arrive for g+1 while g's release wave is still
// fanning out elsewhere in the tree. Propagation happens outside barMu.
func (p *Proc) treeBarEvent(gen uint64, own bool, seq uint64) {
	root := p.treeParent < 0
	p.barMu.Lock()
	if p.downPeer.Load() >= 0 {
		// A peer is lost and the purge ran or is about to: drop the
		// arrival rather than repopulate the table (the waiters fail
		// with ErrPeerLost).
		p.barMu.Unlock()
		return
	}
	tb := p.barTree[gen]
	if tb == nil {
		tb = &treeBar{}
		p.barTree[gen] = tb
	}
	if own {
		tb.own, tb.seq = true, seq
	} else {
		tb.kids++
	}
	ready := tb.own && tb.kids == len(p.treeKids)
	if ready && root {
		// The root releases immediately; interior nodes keep the entry
		// until the release wave returns (it carries their waiter seq).
		delete(p.barTree, gen)
	}
	p.barMu.Unlock()
	if !ready {
		return
	}
	if !root {
		p.coll.CountHops(1, 0)
		p.ep.Send(amnet.Msg{Dst: p.treeParent, Handler: hBarArrive, A: gen, C: barWaveUp})
		return
	}
	p.treeBarRelease(gen, tb.seq)
}

// treeBarRelease fans the release wave to this node's subtrees and
// completes the local waiter.
func (p *Proc) treeBarRelease(gen, seq uint64) {
	p.coll.CountHops(len(p.treeKids), 0)
	for _, k := range p.treeKids {
		p.ep.Send(amnet.Msg{Dst: k, Handler: hBarArrive, A: gen, C: barWaveDown})
	}
	p.ctx.Complete(seq, amnet.Msg{})
}

// lockRequest handles a region lock request at the region's home. The
// directory's lock fields (LockHolder, LockQueue) are under the
// directory's lockMu, which the handler shares with the peer-down purge
// and the application thread's space-wide resets. The grant is sent
// after lockMu is released.
func (p *Proc) lockRequest(m amnet.Msg) {
	p.regMu.RLock()
	r := p.regions.Get(RegionID(m.A))
	p.regMu.RUnlock()
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
// lockMu discipline as lockRequest.
func (p *Proc) unlockRequest(m amnet.Msg) {
	p.regMu.RLock()
	r := p.regions.Get(RegionID(m.A))
	p.regMu.RUnlock()
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

// Collective operation codes (field C of hColl messages).
const (
	collOpBcast uint64 = iota
	collOpSumI
	collOpMinI
	collOpMaxI
	collOpSumF
	collOpMinF
	collOpMaxF
	collOpResult
)

// collDeliver handles a collective message: a broadcast or result wave
// is forwarded down the tree before the local waiter wakes, so the
// subtree's latency is not behind it; anything else is a child
// subtree's reduction partial. collArrived takes collMu itself.
func (p *Proc) collDeliver(m amnet.Msg) {
	switch m.C {
	case collOpBcast:
		p.bcastFan(int(m.D), m.A, m.Payload)
		p.collArrived(m.A, m.Payload)
	case collOpResult:
		p.sendFan(p.treeKids, amnet.Msg{Handler: hColl, A: m.A, C: collOpResult, Payload: m.Payload})
		p.collArrived(m.A, m.Payload)
	default:
		p.treeContribute(m.A, m.C, m.Src, m.Payload)
	}
}

// treeContribute folds one reduction contribution — the local value or
// a child subtree's partial — into the tag's accumulator, under accMu,
// which the handler shares with the application thread's own
// contribution and with the peer-down purge. Slots follow the canonical
// combine order (own value, then children in increasing rank), so
// combining a full accumulator left-to-right at every level gives bits
// that do not depend on arrival order. The finishing contributor owns
// the accumulator once it is deleted from the table, and combines and
// sends outside accMu: Send can block on transport backpressure.
func (p *Proc) treeContribute(tag, code uint64, src amnet.NodeID, val []byte) {
	p.accMu.Lock()
	if p.downPeer.Load() >= 0 {
		p.accMu.Unlock()
		return // purged; drop (see treeBarEvent)
	}
	acc := p.collAcc[tag]
	if acc == nil {
		acc = &collAcc{vals: make([][]byte, len(p.treeKids)+1)}
		p.collAcc[tag] = acc
	}
	slot := 0
	if src != p.id {
		slot = 1 + p.kidSlot(src)
	}
	acc.vals[slot] = clone(val)
	acc.count++
	done := acc.count == len(acc.vals)
	if done {
		delete(p.collAcc, tag)
	}
	p.accMu.Unlock()
	if !done {
		return
	}
	part := acc.vals[0]
	for _, v := range acc.vals[1:] {
		combineInto(code, part, v)
		amnet.Recycle(v)
	}
	if p.treeParent >= 0 {
		p.coll.CountHops(1, len(part))
		// part is a pooled clone this node owns; on a by-reference
		// fabric ownership passes to the parent's handler, on a copying
		// fabric Send is done with it when it returns.
		p.ep.Send(amnet.Msg{Dst: p.treeParent, Handler: hColl, A: tag, C: code, Payload: part})
		if p.fabricCopies {
			amnet.Recycle(part)
		}
		return
	}
	p.sendFan(p.treeKids, amnet.Msg{Handler: hColl, A: tag, C: collOpResult, Payload: part})
	p.collArrived(tag, part)
	amnet.Recycle(part)
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

// collArrived records a collective payload for tag, waking a waiter if one
// is registered.
func (p *Proc) collArrived(tag uint64, payload []byte) {
	p.collMu.Lock()
	if seq, ok := p.collWait[tag]; ok {
		delete(p.collWait, tag)
		p.collMu.Unlock()
		p.ctx.Complete(seq, amnet.Msg{Payload: clone(payload)})
		return
	}
	p.collGot[tag] = clone(payload)
	p.collMu.Unlock()
}

// collAwait blocks until the payload for tag arrives. The registration
// (check collGot, else record a waiter in collWait) happens atomically
// under collMu, which is released before blocking.
func (p *Proc) collAwait(tag uint64) []byte {
	p.collMu.Lock()
	if v, ok := p.collGot[tag]; ok {
		delete(p.collGot, tag)
		p.collMu.Unlock()
		return v
	}
	seq := p.ctx.NewWaiter()
	p.collWait[tag] = seq
	p.collMu.Unlock()
	m := p.ctx.Wait(seq)
	return m.Payload
}

// Broadcast distributes data from the root processor to all processors and
// returns it. It is collective: every processor must call it in the same
// program order. The root's data argument is the value broadcast; other
// processors may pass nil. Each level of the tree forwards to its own
// subtrees, so no node sends more than ⌈log₂ P⌉ copies. A root outside
// [0, P) panics.
func (p *Proc) Broadcast(root int, data []byte) []byte {
	if root < 0 || root >= p.cl.Procs() {
		panic(fmt.Sprintf("core: Broadcast root %d outside [0, %d)", root, p.cl.Procs()))
	}
	// collSeq is application-thread-private; no lock needed for the tag.
	p.collSeq++
	tag := p.collSeq
	p.coll.CountBcast()
	if int(p.id) != root {
		return p.collAwait(tag)
	}
	p.bcastFan(root, tag, data)
	return data
}

// bcastFan forwards a broadcast payload to this node's children in the
// binomial tree rooted at the broadcast's root. The tree is relabeled
// by virtual rank (id - root) mod P so any root gets the same O(log P)
// fan-out; D carries the root so forwarders can compute their place.
func (p *Proc) bcastFan(root int, tag uint64, data []byte) {
	n := p.cl.Procs()
	vr := (int(p.id) - root + n) % n
	kids := treeKidsOf(vr, n)
	dsts := make([]amnet.NodeID, len(kids))
	for i, k := range kids {
		dsts[i] = amnet.NodeID((k + root) % n)
	}
	p.sendFan(dsts, amnet.Msg{Handler: hColl, A: tag, C: collOpBcast, D: uint64(root), Payload: data})
}

// BroadcastID broadcasts a region id from root.
func (p *Proc) BroadcastID(root int, id RegionID) RegionID {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(id))
	out := p.Broadcast(root, buf[:])
	return RegionID(binary.LittleEndian.Uint64(out))
}

// BroadcastIDs broadcasts a slice of region ids from root. Non-root
// processors may pass nil; all processors must agree on the length only at
// the root.
func (p *Proc) BroadcastIDs(root int, ids []RegionID) []RegionID {
	buf := make([]byte, 8*len(ids))
	for i, id := range ids {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(id))
	}
	out := p.Broadcast(root, buf)
	res := make([]RegionID, len(out)/8)
	for i := range res {
		res[i] = RegionID(binary.LittleEndian.Uint64(out[i*8:]))
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
	out := p.allReduce(reduceCode(op, false), uint64(v))
	return int64(out)
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
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(x))
	}
	out := p.reduceRound(code, buf)
	res := make([]int64, len(out)/8)
	for i := range res {
		res[i] = int64(binary.LittleEndian.Uint64(out[i*8:]))
	}
	return res
}

// reduceRound runs one all-reduce round over a word-vector payload:
// contribute the local value, block until the combined result arrives.
// The contribution folds into the local accumulator and climbs
// (treeContribute sends the subtree partial up when the last child
// reports, and the root starts the result wave down).
func (p *Proc) reduceRound(code uint64, buf []byte) []byte {
	p.collSeq++
	return p.reduceRoundTag(p.collSeq, code, buf)
}

// reduceRoundTag is reduceRound with a caller-chosen tag. Program-order
// collectives tag with collSeq; the post-revive resynchronization round
// cannot (the cursors it is aligning disagree across processors) and
// uses a reserved out-of-band tag instead (see resyncAfterRevive).
func (p *Proc) reduceRoundTag(tag, code uint64, buf []byte) []byte {
	p.coll.CountReduce()
	p.treeContribute(tag, code, p.id, buf)
	return p.collAwait(tag)
}

// AllReduceFloat64 combines v across all processors with op and returns
// the result on every processor. Collective.
func (p *Proc) AllReduceFloat64(op ReduceOp, v float64) float64 {
	out := p.allReduce(reduceCode(op, true), math.Float64bits(v))
	return math.Float64frombits(out)
}

func (p *Proc) allReduce(code uint64, word uint64) uint64 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], word)
	out := p.reduceRound(code, buf[:])
	return binary.LittleEndian.Uint64(out)
}

// combineInto folds src into dst element-wise with the operator in code.
func combineInto(code uint64, dst, src []byte) {
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
