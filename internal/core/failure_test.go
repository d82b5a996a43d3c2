package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/faultnet"
	"github.com/acedsm/ace/internal/trace"
)

// TestSyncTimeoutFailsStalledBarrier: with SyncTimeout set, a barrier
// that can never complete (one processor skips it) fails the stalled
// processor's Run with ErrSyncStall instead of hanging forever.
func TestSyncTimeoutFailsStalledBarrier(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 2, SyncTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		if p.ID() == 1 {
			return nil // never arrives at the barrier
		}
		p.GlobalBarrier()
		return nil
	})
	if !errors.Is(err, ErrSyncStall) {
		t.Fatalf("Run error = %v, want ErrSyncStall", err)
	}
	var stall *SyncStallError
	if !errors.As(err, &stall) || stall.Local != 0 {
		t.Fatalf("Run error = %#v, want SyncStallError on proc 0", err)
	}
}

// TestPeerLostFailsBlockedBarrier: killing a peer under faultnet turns
// the survivor's blocked barrier wait into an error matching ErrPeerLost
// that names the lost peer.
func TestPeerLostFailsBlockedBarrier(t *testing.T) {
	inner, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	nw := faultnet.Wrap(inner, faultnet.Policy{})
	cl, err := NewCluster(Options{Procs: 2, Transport: amnet.Fixed(nw)})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		if p.ID() == 1 {
			// Simulate this processor dying before the collective.
			nw.Kill(1)
			return nil
		}
		p.GlobalBarrier()
		return nil
	})
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("Run error = %v, want ErrPeerLost", err)
	}
	var lost *PeerLostError
	if !errors.As(err, &lost) || lost.Local != 0 || lost.Peer != 1 {
		t.Fatalf("Run error = %#v, want PeerLostError{Local: 0, Peer: 1}", err)
	}
}

// TestLateCompletionAfterStallIsDropped: a completion arriving after
// Wait already failed with ErrSyncStall — the likely shape of a stall,
// a slow but alive peer answering just past the timeout — must be
// dropped by the pump, not crash the process with an unknown-waiter
// panic. The fault delay holds proc 1's barrier arrival (and the
// completions node 0 eventually fans out) past both processors'
// SyncTimeout, so each pump later dispatches a completion for a retired
// waiter; surviving the post-Run window is the assertion.
func TestLateCompletionAfterStallIsDropped(t *testing.T) {
	inner, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	nw := faultnet.Wrap(inner, faultnet.Policy{Delay: 150 * time.Millisecond})
	cl, err := NewCluster(Options{Procs: 2, Transport: amnet.Fixed(nw), SyncTimeout: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		p.GlobalBarrier()
		return nil
	})
	if !errors.Is(err, ErrSyncStall) {
		t.Fatalf("Run error = %v, want ErrSyncStall", err)
	}
	// Proc 0's late completion lands ~150ms in, proc 1's ~300ms; an
	// unknown-waiter panic on either pump would kill the test binary.
	time.Sleep(400 * time.Millisecond)
}

// TestFaultsOptionEndToEnd: Options.Faults wraps the cluster transport
// in the fault injector; a coherent workload still computes the right
// answer and the injected faults show up in Metrics.
func TestFaultsOptionEndToEnd(t *testing.T) {
	cl, err := NewCluster(Options{
		Procs: 3,
		Faults: &faultnet.Policy{
			Seed:        11,
			Delay:       50 * time.Microsecond,
			Jitter:      100 * time.Microsecond,
			DropProb:    0.15,
			ReorderProb: 0.15,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const rounds = 8
	err = cl.Run(func(p *Proc) error {
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		for i := 0; i < rounds; i++ {
			if p.ID() == i%p.Procs() {
				p.StartWrite(r)
				r.Data[0]++
				p.EndWrite(r)
			}
			p.GlobalBarrier()
			p.StartRead(r)
			got := r.Data[0]
			p.EndRead(r)
			if got != byte(i+1) {
				return &stale{proc: p.ID(), round: i, got: got}
			}
			p.GlobalBarrier()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if total := cl.Metrics().Net.Faults.Total(); total == 0 {
		t.Fatal("no faults injected despite Options.Faults")
	}
	if d := cl.Metrics().Net.Faults.Get(trace.FaultDrop); d == 0 {
		t.Error("drop fault never injected")
	}
}

type stale struct {
	proc, round int
	got         byte
}

func (s *stale) Error() string {
	return "stale read"
}

// TestCompleteRetireRaceNoStrandedCompletion: Complete used to publish
// the message to the waiter's channel after dropping p.wMu, so a waiter
// retired between the lookup and the send (Wait failing with
// ErrSyncStall/ErrPeerLost at just the wrong moment) received the
// completion into an abandoned channel: the message — and its pooled
// payload — was stranded instead of being dropped and recycled.
//
// The schedule is made deterministic (the window is a few nanoseconds,
// unhittable by chance on one CPU): the waiter's cap-1 channel is
// pre-filled, so the racing Complete passes its waiter lookup and then
// parks exactly inside the window, between the lookup and the delivery.
// The main goroutine then runs waitSync's failure path — one last
// non-blocking drain, then retirement — and the drain releases the
// parked Complete straight into the just-retired waiter. The assertion
// is the invariant the fix establishes: once retireWaiter returns, no
// completion can remain in (or later enter) the waiter's channel.
func TestCompleteRetireRaceNoStrandedCompletion(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.procs[0]
	ctx := &Ctx{p: p}
	for i := 0; i < 200; i++ {
		seq := ctx.NewWaiter()
		p.wMu.Lock()
		w := p.waiters[seq]
		p.wMu.Unlock()
		w.ch <- amnet.Msg{} // occupy the buffer slot
		done := make(chan struct{})
		go func() {
			ctx.Complete(seq, amnet.Msg{B: seq, Payload: amnet.Alloc(16)})
			close(done)
		}()
		// Let the completer run up to its delivery (or, post-fix, all
		// the way through its non-blocking fallback).
		for j := 0; j < 100; j++ {
			select {
			case <-done:
				j = 100
			default:
				runtime.Gosched()
			}
		}
		// waitSync's failure path: final non-blocking drain, then
		// retirement.
		select {
		case <-w.ch:
		default:
		}
		p.retireWaiter(seq)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("Complete still blocked after retirement")
		}
		if n := len(w.ch); n != 0 {
			t.Fatalf("iteration %d: completion stranded in a retired waiter's channel", i)
		}
	}
}

// TestCompleteRetireConcurrentStress: the same pairing without the
// deterministic schedule, for the race detector's benefit.
func TestCompleteRetireConcurrentStress(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.procs[0]
	ctx := &Ctx{p: p}
	for i := 0; i < 2000; i++ {
		seq := ctx.NewWaiter()
		p.wMu.Lock()
		w := p.waiters[seq]
		p.wMu.Unlock()
		var wg sync.WaitGroup
		var delivered atomic.Bool
		wg.Add(2)
		go func() {
			defer wg.Done()
			ctx.Complete(seq, amnet.Msg{B: seq, Payload: amnet.Alloc(16)})
		}()
		go func() {
			defer wg.Done()
			select {
			case m := <-w.ch:
				delivered.Store(true)
				amnet.Recycle(m.Payload)
				return
			default:
			}
			p.retireWaiter(seq)
		}()
		wg.Wait()
		if !delivered.Load() && len(w.ch) != 0 {
			t.Fatalf("iteration %d: completion stranded in a retired waiter's channel", i)
		}
		p.wMu.Lock()
		delete(p.waiters, seq)
		p.wMu.Unlock()
	}
}
