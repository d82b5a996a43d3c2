package core

import (
	"errors"
	"sync"
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

// TestDuplicatePeerDownFirstWins: peer-down reports race in from several
// transport goroutines (two kills, or a transport and the failure
// detector naming one peer). The first report latches its peer and
// closes downCh once; later reports, concurrent or not, change nothing,
// and a blocked wait names the first peer.
func TestDuplicatePeerDownFirstWins(t *testing.T) {
	const procs = 4
	cl, err := NewCluster(Options{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.procs[0]
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(peer amnet.NodeID) {
			defer wg.Done()
			p.peerDown(peer)
		}(amnet.NodeID(1 + i%(procs-1)))
	}
	wg.Wait()
	select {
	case <-p.downCh:
	default:
		t.Fatal("no peer-down report closed downCh")
	}
	first := p.downPeer.Load()
	if first < 1 || first >= procs {
		t.Fatalf("downPeer = %d, want one of the reported peers", first)
	}
	p.peerDown(amnet.NodeID(1 + int(first)%(procs-1))) // another peer, later
	if got := p.downPeer.Load(); got != first {
		t.Fatalf("a later report moved downPeer from %d to %d", first, got)
	}
	err = cl.Run(func(q *Proc) error {
		if q.ID() == 0 {
			q.GlobalBarrier()
		}
		return nil
	})
	var lost *PeerLostError
	if !errors.As(err, &lost) || lost.Local != 0 || lost.Peer != int(first) {
		t.Fatalf("Run error = %#v, want PeerLostError{Local: 0, Peer: %d}", err, first)
	}
}

// TestLateCompletionAfterStallIsDropped: a completion arriving after
// Wait already failed with ErrSyncStall — the likely shape of a stall,
// a slow but alive peer answering just past the timeout — must be
// dropped by the pump, not crash the process with an unknown-waiter
// panic. The fault delay holds proc 1's barrier arrival (and the
// completions node 0 eventually fans out) past both processors'
// SyncTimeout, so each pump later dispatches a completion for a retired
// waiter; surviving the post-Run window is the assertion. A completion
// for a seq the processor never issued still panics.
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
	for i, p := range cl.procs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("proc %d: completion for a never-issued seq did not panic", i)
				}
			}()
			p.ctx.Complete(p.nextWaiter+1, amnet.Msg{})
		}()
	}
}

// TestFaultsOptionEndToEnd: Options.Faults wraps the cluster transport
// in the fault injector; a coherent workload still computes the right
// answer and the injected faults show up in Metrics.
func TestFaultsOptionEndToEnd(t *testing.T) {
	cl, err := NewCluster(Options{
		Procs: 3,
		Faults: &faultnet.Policy{
			Seed:     11,
			Delay:    50 * time.Microsecond,
			Jitter:   100 * time.Microsecond,
			DropProb: 0.28,
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

// TestCompleteRetireRaceNoStrandedCompletion: a failed wait strands no
// completion. Complete and a failing Wait (abandonWait, its failure
// path) both claim the waiter slot's seq with one compare-and-swap, so
// the two orders are the whole story and each runs deterministically
// here: a completion that claims first is handed to the failing wait,
// which returns it instead of failing; once the wait has claimed, a
// later completion is dropped below the watermark. Either way the slot
// ends disarmed, empty and with no wake token, and the next NewWaiter
// arms it.
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
		completeFirst := i%2 == 0
		if completeFirst {
			ctx.Complete(seq, amnet.Msg{B: seq, Payload: amnet.Alloc(16)})
		}
		m, ok := p.abandonWait(seq, false)
		if ok != completeFirst {
			t.Fatalf("iteration %d: abandonWait delivered=%v, want %v", i, ok, completeFirst)
		}
		if ok {
			if m.B != seq {
				t.Fatalf("iteration %d: got completion %d, want %d", i, m.B, seq)
			}
			amnet.Recycle(m.Payload)
		} else {
			ctx.Complete(seq, amnet.Msg{B: seq, Payload: amnet.Alloc(16)}) // dropped
		}
		if err := slotClear(p); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// TestCompleteRetireConcurrentStress: the same pairing with the two
// claims racing on their own goroutines, for the race detector's
// benefit. Exactly one side wins: the failing wait receives the
// completion, or the completion is dropped; nothing is left in the
// slot.
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
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			ctx.Complete(seq, amnet.Msg{B: seq, Payload: amnet.Alloc(16)})
		}()
		go func() {
			defer wg.Done()
			if m, ok := p.abandonWait(seq, false); ok {
				amnet.Recycle(m.Payload)
			}
		}()
		wg.Wait()
		if err := slotClear(p); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// TestSecondNewWaiterPanics: an application thread has one waiter slot,
// so arming it while a wait is pending — armed, or completed but not yet
// waited — panics.
func TestSecondNewWaiterPanics(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ctx := cl.procs[0].ctx
	mustPanic := func(what string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("NewWaiter %s did not panic", what)
			}
		}()
		ctx.NewWaiter()
	}
	seq := ctx.NewWaiter()
	mustPanic("with a wait armed")
	ctx.Complete(seq, amnet.Msg{})
	mustPanic("with a completion not yet waited")
	ctx.Wait(seq)
	seq = ctx.NewWaiter() // the slot is free again
	ctx.Complete(seq, amnet.Msg{})
	ctx.Wait(seq)
}
