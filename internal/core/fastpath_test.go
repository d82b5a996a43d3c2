package core

import (
	"fmt"
	"testing"

	"github.com/acedsm/ace/internal/trace"
)

// These tests stress the lock-free bracket fast path against the message
// pump. They are most valuable under -race: the fast path commits section
// entry/exit with a CAS on the region's hot word while the pump delivers
// protocol messages that mutate coherence state, and the disable-bits-
// before-Deliver discipline is what keeps the two from racing.

// TestFastPathStressSiblingInvalidation hammers hit brackets on each
// processor's home region while its left neighbor generates coherence
// traffic against that same region (exclusive-write increments). The
// pump's deliveries (revokes, grants, directory updates) race the app
// thread's fast CASes; SC must still deliver monotonic values and the
// exact final count.
func TestFastPathStressSiblingInvalidation(t *testing.T) {
	const (
		nprocs = 4
		writes = 200
		reads  = 30
	)
	run(t, nprocs, func(p *Proc) error {
		me := p.ID()
		mine := p.GMalloc(p.DefaultSpace(), 8)
		regs := make([]*Region, nprocs)
		for i := 0; i < nprocs; i++ {
			regs[i] = p.Map(p.BroadcastID(i, mine))
		}
		p.GlobalBarrier()

		victim := regs[(me+1)%nprocs]
		last := int64(-1)
		for w := 0; w < writes; w++ {
			p.StartWrite(victim)
			victim.Data.SetInt64(0, victim.Data.Int64(0)+1)
			p.EndWrite(victim)
			for i := 0; i < reads; i++ {
				p.StartRead(regs[me])
				v := regs[me].Data.Int64(0)
				p.EndRead(regs[me])
				if v < last {
					return fmt.Errorf("proc %d: value went backwards: %d after %d", me, v, last)
				}
				last = v
			}
		}
		p.GlobalBarrier()

		p.StartRead(regs[me])
		got := regs[me].Data.Int64(0)
		p.EndRead(regs[me])
		if got != writes {
			return fmt.Errorf("proc %d: final value %d, want %d", me, got, writes)
		}

		// Quiescent epilogue: with no traffic in flight the home's
		// directory settles, so all but the first of these brackets must
		// commit on the fast path.
		before := p.Snapshot().FastOps[trace.OpStartRead]
		for i := 0; i < 100; i++ {
			p.StartRead(regs[me])
			p.EndRead(regs[me])
		}
		if hits := p.Snapshot().FastOps[trace.OpStartRead] - before; hits < 99 {
			return fmt.Errorf("proc %d: %d/100 quiescent brackets hit the fast path, want >= 99", me, hits)
		}
		p.GlobalBarrier()
		return nil
	})
}

// TestFastPathStressChangeProtocol interleaves bracket hammering with
// collective protocol changes. ChangeProtocol must withdraw every
// region's published fast bits before resetting coherence state: a stale
// bit surviving the flush would let a post-change fast read observe
// pre-flush data, which the per-round value check catches.
func TestFastPathStressChangeProtocol(t *testing.T) {
	const rounds = 20
	run(t, 4, func(p *Proc) error {
		sp, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		r := p.Map(p.BroadcastID(0, id))
		p.GlobalBarrier()

		for round := 0; round < rounds; round++ {
			if p.ID() == round%p.Procs() {
				p.StartWrite(r)
				r.Data.SetInt64(0, int64(round+1))
				p.EndWrite(r)
			}
			// Concurrent readers may observe the previous or the new
			// value, never anything else.
			for i := 0; i < 100; i++ {
				p.StartRead(r)
				v := r.Data.Int64(0)
				p.EndRead(r)
				if v != int64(round) && v != int64(round+1) {
					return fmt.Errorf("proc %d round %d: read %d", p.ID(), round, v)
				}
			}
			p.GlobalBarrier()
			if err := p.ChangeProtocol(sp, "sc"); err != nil {
				return err
			}
			p.StartRead(r)
			v := r.Data.Int64(0)
			p.EndRead(r)
			if v != int64(round+1) {
				return fmt.Errorf("proc %d round %d: post-change read %d, want %d", p.ID(), round, v, round+1)
			}
			p.GlobalBarrier()
		}
		return nil
	})
}

// TestFastHitCounters checks the one-counter contract: the same
// deterministic program counts the same per-space operations, fast hits
// and remote misses whether or not its brackets are timed. Every hit is
// still counted as an operation, and on a quiescent home region nearly
// every bracket is a hit.
func TestFastHitCounters(t *testing.T) {
	const k = 1000
	spaces := func(cfg *trace.Config) []trace.SpaceMetrics {
		cl, err := NewCluster(Options{Procs: 1, Trace: cfg})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		err = cl.Run(func(p *Proc) error {
			sp, err := p.NewSpace("sc")
			if err != nil {
				return err
			}
			r := p.Map(p.GMalloc(p.DefaultSpace(), 16))
			for i := 0; i < k; i++ {
				p.StartRead(r)
				p.StartRead(r) // nested sections exercise counts > 1
				p.EndRead(r)
				p.EndRead(r)
			}
			for i := 0; i < k; i++ {
				p.StartWrite(r)
				r.Data.SetInt64(0, int64(i))
				p.EndWrite(r)
			}
			p.Lock(r)
			p.Unlock(r)
			p.Unmap(r)
			p.Barrier(sp)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl.Metrics().Spaces
	}
	untimed := spaces(nil)
	timed := spaces(&trace.Config{Metrics: true})
	if len(untimed) != 2 || len(timed) != 2 {
		t.Fatalf("spaces: untimed %d, timed %d, want 2", len(untimed), len(timed))
	}
	for i := range timed {
		u, m := untimed[i], timed[i]
		if u.Ops != m.Ops || u.FastOps != m.FastOps ||
			u.RemoteReadMisses != m.RemoteReadMisses || u.RemoteWriteMisses != m.RemoteWriteMisses {
			t.Errorf("space %d: untimed counts %+v/%+v/%d/%d, timed %+v/%+v/%d/%d", i,
				u.Ops, u.FastOps, u.RemoteReadMisses, u.RemoteWriteMisses,
				m.Ops, m.FastOps, m.RemoteReadMisses, m.RemoteWriteMisses)
		}
		if got, want := m.Latency[trace.OpStartRead].Count, m.Ops[trace.OpStartRead]; got != want {
			t.Errorf("space %d: timed start_read latency count %d, want %d", i, got, want)
		}
		if u.Latency[trace.OpStartRead].Count != 0 {
			t.Errorf("space %d: untimed run recorded latency", i)
		}
	}
	ops, fast := untimed[0].Ops, untimed[0].FastOps
	if ops[trace.OpStartRead] != 2*k || ops[trace.OpEndRead] != 2*k ||
		ops[trace.OpStartWrite] != k || ops[trace.OpEndWrite] != k ||
		ops[trace.OpLock] != 1 || ops[trace.OpUnmap] != 1 || untimed[1].Ops[trace.OpBarrier] != 1 {
		t.Fatalf("op counts: %+v / %+v", ops, untimed[1].Ops)
	}
	// A single-proc home region is permanently quiescent: at most the
	// first bracket of each kind takes the slow path.
	if fast[trace.OpStartRead] < 2*k-1 || fast[trace.OpEndRead] < 2*k-1 ||
		fast[trace.OpStartWrite] < k-1 || fast[trace.OpEndWrite] < k-1 {
		t.Errorf("fast hits %v, want near-total on a quiescent home region", fast)
	}
	for op := trace.Op(0); op < trace.NumOps; op++ {
		if fast[op] > ops[op] {
			t.Errorf("%v: %d fast hits exceed %d ops", op, fast[op], ops[op])
		}
	}
}
