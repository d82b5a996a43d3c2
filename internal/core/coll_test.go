package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/faultnet"
)

// runColl spins up an n-processor cluster and runs fn SPMD.
func runColl(t *testing.T, n int, fn func(p *Proc) error) {
	t.Helper()
	cl, err := NewCluster(Options{Procs: n})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close()
	if err := cl.Run(fn); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestTreeShape(t *testing.T) {
	// parent(v) clears the lowest set bit.
	for _, tc := range []struct{ v, parent int }{
		{1, 0}, {2, 0}, {3, 2}, {4, 0}, {5, 4}, {6, 4}, {7, 6}, {8, 0}, {12, 8}, {13, 12},
	} {
		if got := treeParentOf(tc.v); got != tc.parent {
			t.Errorf("treeParentOf(%d) = %d, want %d", tc.v, got, tc.parent)
		}
	}
	// Children invert the parent relation exactly, for assorted sizes.
	for _, n := range []int{1, 2, 3, 5, 8, 9, 16, 17, 31} {
		seen := make(map[int]bool)
		for v := 0; v < n; v++ {
			for _, k := range treeKidsOf(v, n) {
				if k <= v || k >= n {
					t.Fatalf("n=%d: child %d of %d out of range", n, k, v)
				}
				if seen[k] {
					t.Fatalf("n=%d: rank %d has two parents", n, k)
				}
				seen[k] = true
				if got := treeParentOf(k); got != v {
					t.Fatalf("n=%d: treeParentOf(%d) = %d, want %d", n, k, got, v)
				}
			}
		}
		if len(seen) != n-1 {
			t.Fatalf("n=%d: %d ranks have parents, want %d", n, len(seen), n-1)
		}
	}
}

// TestTreeCollectivesCorrect runs the full collective API across sizes
// that exercise every tree shape: the lone root, the trivial pair,
// powers of two, one-past, and odd.
func TestTreeCollectivesCorrect(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 4, 5, 8, 9, 16} {
		procs := procs
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			t.Parallel()
			runColl(t, procs, func(p *Proc) error {
				for round := 0; round < 3; round++ {
					p.GlobalBarrier()
					if got, want := p.AllReduceInt64(OpSum, int64(p.ID()+1)), int64(procs*(procs+1)/2); got != want {
						return fmt.Errorf("sum = %d, want %d", got, want)
					}
					if got := p.AllReduceInt64(OpMin, int64(p.ID())-3); got != -3 {
						return fmt.Errorf("min = %d, want -3", got)
					}
					if got, want := p.AllReduceInt64(OpMax, int64(p.ID())), int64(procs-1); got != want {
						return fmt.Errorf("max = %d, want %d", got, want)
					}
					if got, want := p.AllReduceFloat64(OpSum, 0.5), float64(procs)*0.5; got != want {
						return fmt.Errorf("fsum = %v, want %v", got, want)
					}
					if got := p.AllReduceFloat64(OpMin, float64(p.ID())+0.25); got != 0.25 {
						return fmt.Errorf("fmin = %v, want 0.25", got)
					}
					vec := p.AllReduceInt64s(OpSum, []int64{1, int64(p.ID()), -2})
					if vec[0] != int64(procs) || vec[1] != int64(procs*(procs-1)/2) || vec[2] != int64(-2*procs) {
						return fmt.Errorf("vector sum = %v", vec)
					}
					for root := 0; root < procs; root++ {
						var data []byte
						if p.ID() == root {
							data = []byte(fmt.Sprintf("r%d-%d", root, round))
						}
						got := p.Broadcast(root, data)
						if want := fmt.Sprintf("r%d-%d", root, round); string(got) != want {
							return fmt.Errorf("proc %d: broadcast from %d gave %q, want %q", p.ID(), root, got, want)
						}
					}
				}
				p.GlobalBarrier()
				return nil
			})
		})
	}
}

// reduce is the oracle for the tree's fold order: it combines the
// per-rank contribution payloads with the operator in code in canonical
// binomial-tree order, rank v's subtree as (own value, then each child
// subtree in increasing rank), recursively from the root. Payloads are
// equal-length vectors of 64-bit words and are consumed: the result
// aliases vals[0].
func reduce(code uint64, vals [][]byte) []byte {
	return reduceSubtree(code, vals, 0)
}

// reduceSubtree combines the contributions of the subtree rooted at
// rank v into vals[v] and returns it.
func reduceSubtree(code uint64, vals [][]byte, v int) []byte {
	acc := vals[v]
	for _, k := range treeKidsOf(v, len(vals)) {
		acc = combine(code, acc, reduceSubtree(code, vals, k))
	}
	return acc
}

// TestAllReduceCanonicalOrder: every node folds its own value before its
// children's partials, in increasing rank, so the result is the oracle's
// canonical fold bit for bit — even for the float sum, where another
// association order gives other bits — and never depends on which
// partial arrived first.
func TestAllReduceCanonicalOrder(t *testing.T) {
	const rounds, width = 4, 5
	// Rank- and round-dependent contributions spanning five decades, so
	// the association order shows in the low bits of the sum.
	contrib := func(id, round, i int) float64 {
		return math.Sqrt(float64(id+1)) * math.Pow(10, float64((id+round+i)%5-2))
	}
	ivec := func(id, round int) []int64 {
		v := make([]int64, width)
		for i := range v {
			v[i] = int64(math.Float64bits(contrib(id, round, i)))
		}
		return v
	}
	for _, procs := range []int{2, 3, 4, 5, 8, 16} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			wantF := make([]uint64, rounds)
			wantI := make([][]byte, rounds)
			for round := range wantF {
				fvals := make([][]byte, procs)
				ivals := make([][]byte, procs)
				for id := range fvals {
					fvals[id] = binary.LittleEndian.AppendUint64(nil, math.Float64bits(contrib(id, round, 0)))
					for _, x := range ivec(id, round) {
						ivals[id] = binary.LittleEndian.AppendUint64(ivals[id], uint64(x))
					}
				}
				wantF[round] = binary.LittleEndian.Uint64(reduce(collOpSumF, fvals))
				wantI[round] = reduce(collOpSumI, ivals)
			}
			runColl(t, procs, func(p *Proc) error {
				for round := 0; round < rounds; round++ {
					f := p.AllReduceFloat64(OpSum, contrib(p.ID(), round, 0))
					if got := math.Float64bits(f); got != wantF[round] {
						return fmt.Errorf("proc %d round %d: float sum bits %x, canonical fold %x", p.ID(), round, got, wantF[round])
					}
					for i, got := range p.AllReduceInt64s(OpSum, ivec(p.ID(), round)) {
						if want := int64(binary.LittleEndian.Uint64(wantI[round][8*i:])); got != want {
							return fmt.Errorf("proc %d round %d: vector[%d] = %d, canonical fold %d", p.ID(), round, i, got, want)
						}
					}
				}
				return nil
			})
		})
	}
}

// TestAllReduceUnknownOpPanics: an op outside OpSum/OpMin/OpMax has no
// wire code (code 0 is the broadcast's), so it must fail every
// processor with a panic naming the op, before anything is sent.
// SyncTimeout turns a hang into a failure rather than a stuck test.
func TestAllReduceUnknownOpPanics(t *testing.T) {
	const bad = ReduceOp(7)
	for name, call := range map[string]func(p *Proc){
		"AllReduceInt64":   func(p *Proc) { p.AllReduceInt64(bad, 1) },
		"AllReduceInt64s":  func(p *Proc) { p.AllReduceInt64s(bad, []int64{1, 2}) },
		"AllReduceFloat64": func(p *Proc) { p.AllReduceFloat64(bad, 1) },
	} {
		t.Run(name, func(t *testing.T) {
			err := runBadCollective(t, call)
			if err == nil || !strings.Contains(err.Error(), "AllReduce op 7") {
				t.Fatalf("Run error = %v, want a panic naming op 7", err)
			}
		})
	}
}

// TestBroadcastRootOutOfRangePanics: with a root outside [0, P) nobody
// would send, so every processor must panic naming the root instead of
// waiting.
func TestBroadcastRootOutOfRangePanics(t *testing.T) {
	for _, root := range []int{-1, 4} {
		t.Run(fmt.Sprintf("root=%d", root), func(t *testing.T) {
			err := runBadCollective(t, func(p *Proc) { p.Broadcast(root, []byte("x")) })
			want := fmt.Sprintf("Broadcast root %d outside [0, 4)", root)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("Run error = %v, want a panic containing %q", err, want)
			}
		})
	}
}

// runBadCollective runs call on every processor of a 4-processor cluster
// whose waits time out, and returns Run's error.
func runBadCollective(t *testing.T, call func(p *Proc)) error {
	t.Helper()
	cl, err := NewCluster(Options{Procs: 4, SyncTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		call(p)
		return nil
	})
	if errors.Is(err, ErrSyncStall) {
		t.Fatalf("collective with a bad argument stalled: %v", err)
	}
	return err
}

// TestTreeRootNotSerialized: the root handles O(log P) messages per
// reduction or barrier instead of O(P), asserted via the hop counters
// (each node counts the messages it sends, so node 0's recv load is the
// sum of everyone's sends to it; instead we check the root *sends* no
// more than its tree degree per round, and that degree stays within the
// binomial bound ceil(log2 P)+1 — a centralized root would send P per
// round).
func TestTreeRootNotSerialized(t *testing.T) {
	ops := []struct {
		name string
		fn   func(p *Proc)
	}{
		{"AllReduceInt64", func(p *Proc) { p.AllReduceInt64(OpSum, 1) }},
		{"GlobalBarrier", func(p *Proc) { p.GlobalBarrier() }},
	}
	for _, procs := range []int{5, 8, 16} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			for _, op := range ops {
				t.Run(op.name, func(t *testing.T) {
					cl, err := NewCluster(Options{Procs: procs})
					if err != nil {
						t.Fatal(err)
					}
					defer cl.Close()
					const rounds = 10
					if err := cl.Run(func(p *Proc) error {
						for i := 0; i < rounds; i++ {
							op.fn(p)
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					// One partial recv per child and a result fan to each
					// child per round: the root's own sends are its degree
					// per round.
					perRound := float64(cl.procs[0].coll.Snapshot().Hops) / rounds
					if kids := len(cl.procs[0].treeKids); perRound > float64(kids)+0.01 {
						t.Errorf("root sends %.1f msgs/round, want <= %d (tree degree)", perRound, kids)
					}
					if bound := math.Ceil(math.Log2(float64(procs))) + 1; perRound > bound {
						t.Errorf("root sends %.1f msgs/round, above the log bound %.0f", perRound, bound)
					}
				})
			}
		})
	}
}

// TestTreeBarrierLaneOverlapStress: arrivals for round g+1 — the
// children's, handled under each node's dispatch token, and the node's
// own, folded in on its application thread — race the result wave of
// round g; the per-round keying must keep them straight, and the round
// table must drain to empty when the run ends.
func TestTreeBarrierLaneOverlapStress(t *testing.T) {
	const procs, rounds = 8, 200
	cl, err := NewCluster(Options{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Run(func(p *Proc) error {
		for i := 0; i < rounds; i++ {
			p.GlobalBarrier()
			if i%10 == 0 {
				// Mix in reductions and broadcasts so payload rounds
				// interleave with barrier rounds.
				if got := p.AllReduceInt64(OpSum, 1); got != procs {
					return fmt.Errorf("sum = %d", got)
				}
				p.BroadcastID(i%procs, RegionID(i))
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range cl.procs {
		if !collStateEmpty(p) {
			t.Errorf("proc %d: collective state leaked", p.id)
		}
	}
}

// TestBatcherRoundTrip: the aggregation wire format survives
// encode/decode, preserving record order, sizes and contents.
func TestBatcherRoundTrip(t *testing.T) {
	run(t, 1, func(p *Proc) error {
		sp := p.DefaultSpace()
		ctx := sp.ctx
		var regions []*Region
		for i, size := range []int{8, 24, 8, 64} {
			r := p.Map(p.GMalloc(sp, size))
			p.StartWrite(r)
			for j := range r.Data {
				r.Data[j] = byte(i*16 + j)
			}
			p.EndWrite(r)
			regions = append(regions, r)
		}
		b := ctx.NewBatcher(sp, 42)
		if b.Pending() {
			return fmt.Errorf("fresh batcher pending")
		}
		for _, r := range regions {
			b.Add(0, r)
		}
		if !b.Pending() {
			return fmt.Errorf("batcher not pending after Add")
		}
		bb := b.bufs[0]
		recs := p.decodeBatch(sp, amnet.Msg{A: uint64(bb.n), Payload: bb.data})
		if len(recs) != len(regions) {
			return fmt.Errorf("decoded %d records, want %d", len(recs), len(regions))
		}
		for i, rec := range recs {
			if rec.R != regions[i] {
				return fmt.Errorf("record %d: wrong region %v", i, rec.R.ID)
			}
			if len(rec.Data) != len(regions[i].Data) {
				return fmt.Errorf("record %d: %d bytes, want %d", i, len(rec.Data), len(regions[i].Data))
			}
			for j := range rec.Data {
				if rec.Data[j] != byte(i*16+j) {
					return fmt.Errorf("record %d byte %d: %d", i, j, rec.Data[j])
				}
			}
		}
		// Flushing to self delivers through the real handler path; the
		// default protocol is not a BatchDeliverer, so just reset here
		// and verify buffer reuse re-registers the destination.
		bb.data, bb.n = bb.data[:0], 0
		b.order = b.order[:0]
		if b.Pending() {
			return fmt.Errorf("batcher pending after reset")
		}
		b.Add(0, regions[0])
		if !b.Pending() || b.bufs[0].n != 1 {
			return fmt.Errorf("batcher did not re-register destination after reset")
		}
		return nil
	})
}

// TestBatchFrameTruncationPanics: a malformed frame must fail loudly,
// not decode garbage.
func TestBatchFrameTruncationPanics(t *testing.T) {
	run(t, 1, func(p *Proc) error {
		sp := p.DefaultSpace()
		r := p.Map(p.GMalloc(sp, 16))
		var buf []byte
		var hdr [12]byte
		binary.LittleEndian.PutUint64(hdr[:8], uint64(r.ID))
		binary.LittleEndian.PutUint32(hdr[8:], 999) // size beyond payload
		buf = append(buf, hdr[:]...)
		buf = append(buf, make([]byte, 16)...)
		defer func() {
			if recover() == nil {
				t.Error("truncated frame did not panic")
			}
		}()
		p.decodeBatch(sp, amnet.Msg{A: 1, Payload: buf})
		return nil
	})
}

// waitPurged polls until cond holds or the deadline passes — the purge
// runs on its own goroutine after peer loss, so tests must wait for it.
func waitPurged(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Errorf("%s not purged after peer loss", what)
}

// collStateEmpty reports whether p holds no pending collective state:
// no open round.
func collStateEmpty(p *Proc) bool {
	p.treeMu.Lock()
	defer p.treeMu.Unlock()
	return len(p.rounds) == 0
}

// TestPeerLossPurgesCollectiveState: killing a peer between arrival and
// release must (a) fail the survivors' blocked collectives with
// ErrPeerLost and (b) purge every pending round, at P = 3 and at P = 5
// — whether the survivors block in reductions and barriers or in a
// broadcast rooted at the victim.
func TestPeerLossPurgesCollectiveState(t *testing.T) {
	survivors := map[string]func(p *Proc, victim int){
		"rounds": func(p *Proc, _ int) {
			p.AllReduceInt64(OpSum, 1) // partials strand at interior nodes
			p.GlobalBarrier()          // arrivals strand in rounds
		},
		"broadcast": func(p *Proc, victim int) {
			p.Broadcast(victim, nil) // waiters strand in rounds
		},
	}
	for _, procs := range []int{3, 5} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			for name, survive := range survivors {
				t.Run(name, func(t *testing.T) {
					inner, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: procs})
					if err != nil {
						t.Fatal(err)
					}
					nw := faultnet.Wrap(inner, faultnet.Policy{})
					cl, err := NewCluster(Options{Procs: procs, Transport: amnet.Fixed(nw)})
					if err != nil {
						t.Fatal(err)
					}
					defer cl.Close()
					victim := procs - 1
					err = cl.Run(func(p *Proc) error {
						// A completed round first, so state tables have been
						// exercised and drained once.
						p.AllReduceInt64(OpSum, 1)
						if p.ID() == victim {
							// Die between the survivors' arrival and the release:
							// never enter the next collective.
							nw.Kill(amnet.NodeID(victim))
							return nil
						}
						survive(p, victim)
						return nil
					})
					if !errors.Is(err, ErrPeerLost) {
						t.Fatalf("Run error = %v, want ErrPeerLost", err)
					}
					for _, p := range cl.procs {
						p := p
						waitPurged(t, fmt.Sprintf("proc %d collective state", p.id), func() bool { return collStateEmpty(p) })
					}
				})
			}
		})
	}
}

// TestPeerLossPurgesLockQueue: a queued lock waiter purges with the
// rest of the synchronization state when a peer dies.
func TestPeerLossPurgesLockQueue(t *testing.T) {
	const procs = 3
	inner, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: procs})
	if err != nil {
		t.Fatal(err)
	}
	nw := faultnet.Wrap(inner, faultnet.Policy{})
	cl, err := NewCluster(Options{Procs: procs, Transport: amnet.Fixed(nw)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		switch p.ID() {
		case 0:
			p.Lock(r) // holder; never unlocks
			p.GlobalBarrier()
		case 1:
			p.Lock(r) // queues behind proc 0, then fails on peer loss
		case 2:
			time.Sleep(50 * time.Millisecond) // let proc 1 queue
			nw.Kill(2)
		}
		return nil
	})
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("Run error = %v, want ErrPeerLost", err)
	}
	home := cl.procs[0]
	waitPurged(t, "lock queue", func() bool {
		empty := true
		home.regMu.Lock()
		home.regions.ForEach(func(_ RegionID, r *Region) {
			if r.Dir != nil {
				if _, queued := r.Dir.lockState(); queued != 0 {
					empty = false
				}
			}
		})
		home.regMu.Unlock()
		return empty
	})
}
