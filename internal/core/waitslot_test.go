package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"github.com/acedsm/ace/internal/amnet"
)

// slotClear reports how p's waiter slot differs from idle: disarmed,
// empty, holding no message and no wake token, so the next wait can
// neither find a stale reply nor be woken by a stale token.
func slotClear(p *Proc) error {
	if s := p.waitSeq.Load(); s != 0 {
		return fmt.Errorf("waiter slot still armed with %d", s)
	}
	if st := p.waitState.Load(); st != slotEmpty {
		return fmt.Errorf("waiter slot in state %d, want empty", st)
	}
	if p.waitMsg.B != 0 || p.waitMsg.Payload != nil {
		return fmt.Errorf("waiter slot still holds completion %d", p.waitMsg.B)
	}
	if n := len(p.wake); n != 0 {
		return fmt.Errorf("%d wake token(s) left in the waiter slot", n)
	}
	return nil
}

// completeWhenParked completes seq on its own goroutine once the wait
// has parked, so the completion is the one that wakes it.
func completeWhenParked(p *Proc, seq uint64) {
	for p.waitState.Load() != slotParked {
		runtime.Gosched()
	}
	p.ctx.Complete(seq, amnet.Msg{B: seq})
}

// TestWaitSlotStateMachine drives the waiter slot through each way a
// wait can end, thousands of times, checking after every one that the
// slot is idle again:
//   - a completion before Wait, which Wait takes without parking;
//   - a completion after the wait parked, which wakes it;
//   - a failing wait that parked, where the completion claims first and
//     wins, handing over its wake token;
//   - a failing wait that parked and claimed first, whose completion is
//     dropped;
//   - a failing wait that never parked, with the completion claiming
//     first (no token is ever sent) or last (dropped);
//   - a failing waitSync racing its completion from another goroutine,
//     which either returns the reply or fails with ErrPeerLost and has
//     the completion dropped.
func TestWaitSlotStateMachine(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.procs[0]
	ctx := p.ctx
	msg := func(seq uint64) amnet.Msg { return amnet.Msg{B: seq, Payload: amnet.Alloc(16)} }
	got := func(what string, m amnet.Msg, seq uint64) {
		t.Helper()
		if m.B != seq {
			t.Fatalf("%s: got completion %d, want %d", what, m.B, seq)
		}
		amnet.Recycle(m.Payload)
	}
	// down is a closed peer-down signal for the racing case, swapped in
	// around it so the other cases keep the live one.
	down := make(chan struct{})
	close(down)
	live := p.downCh
	cases := []struct {
		name string
		run  func(seq uint64)
	}{
		{"complete-before-wait", func(seq uint64) {
			ctx.Complete(seq, msg(seq))
			got("complete-before-wait", ctx.Wait(seq), seq)
		}},
		{"complete-after-park", func(seq uint64) {
			go completeWhenParked(p, seq)
			got("complete-after-park", ctx.Wait(seq), seq)
		}},
		{"parked-fail-completion-first", func(seq uint64) {
			p.waitState.Store(slotParked) // as waitSync parks
			ctx.Complete(seq, msg(seq))
			m, ok := p.abandonWait(seq, true)
			if !ok {
				t.Fatal("parked-fail-completion-first: the completion that claimed first lost")
			}
			got("parked-fail-completion-first", m, seq)
		}},
		{"parked-fail-wait-first", func(seq uint64) {
			p.waitState.Store(slotParked)
			if _, ok := p.abandonWait(seq, true); ok {
				t.Fatal("parked-fail-wait-first: an unclaimed wait returned a completion")
			}
			ctx.Complete(seq, msg(seq)) // dropped below the watermark
		}},
		{"unparked-fail-completion-first", func(seq uint64) {
			ctx.Complete(seq, msg(seq))
			m, ok := p.abandonWait(seq, false)
			if !ok {
				t.Fatal("unparked-fail-completion-first: the completion that claimed first lost")
			}
			got("unparked-fail-completion-first", m, seq)
		}},
		{"unparked-fail-wait-first", func(seq uint64) {
			if _, ok := p.abandonWait(seq, false); ok {
				t.Fatal("unparked-fail-wait-first: an unclaimed wait returned a completion")
			}
			ctx.Complete(seq, msg(seq))
		}},
		{"parked-fail-racing", func(seq uint64) {
			p.downCh = down
			defer func() { p.downCh = live }()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				runtime.Gosched()
				ctx.Complete(seq, msg(seq))
			}()
			func() {
				defer func() {
					if r := recover(); r != nil {
						if _, lost := r.(*PeerLostError); !lost {
							panic(r)
						}
					}
				}()
				got("parked-fail-racing", p.waitSync(seq), seq)
			}()
			wg.Wait()
		}},
	}
	for i := 0; i < 3000; i++ {
		c := cases[i%len(cases)]
		c.run(ctx.NewWaiter())
		if err := slotClear(p); err != nil {
			t.Fatalf("iteration %d (%s): %v", i, c.name, err)
		}
	}
}

// TestWaitsParkedExact: WaitsParked counts the waits that blocked and
// nothing else. A reply sent before Wait is taken without parking,
// whether it was delivered directly or queued and polled; a reply that
// comes after the wait parked counts exactly one.
func TestWaitsParkedExact(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.procs[0]
	ctx := p.ctx
	parked := func() uint64 { return p.ep.Stats().WaitsParked.Load() }

	seq := ctx.NewWaiter()
	ctx.SendComplete(p.id, seq, 7, nil)
	if m := ctx.Wait(seq); m.A != 7 {
		t.Fatalf("reply before Wait: got A=%d, want 7", m.A)
	}
	if n := parked(); n != 0 {
		t.Fatalf("a reply sent before Wait parked %d wait(s), want 0", n)
	}

	seq = ctx.NewWaiter()
	go completeWhenParked(p, seq)
	if m := ctx.Wait(seq); m.B != seq {
		t.Fatalf("parked wait: got completion %d, want %d", m.B, seq)
	}
	if n := parked(); n != 1 {
		t.Fatalf("one parked wait counted %d, want 1", n)
	}
}

// TestParkedWaitDoesNotAllocate pins the parked side of the waiter
// slot: a wait that blocks and is woken by a completion from another
// goroutine allocates nothing. A remote read miss on an idle home
// (TestRemoteReadMissDoesNotAllocate) never parks, so it does not cover
// this path.
func TestParkedWaitDoesNotAllocate(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	p := cl.procs[0]
	ctx := p.ctx
	seqs := make(chan uint64)
	defer close(seqs)
	go func() {
		for seq := range seqs {
			completeWhenParked(p, seq)
		}
	}()
	wait := func() {
		seq := ctx.NewWaiter()
		seqs <- seq
		if m := ctx.Wait(seq); m.B != seq {
			panic(fmt.Sprintf("got completion %d, want %d", m.B, seq))
		}
	}
	before := p.ep.Stats().WaitsParked.Load()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, wait)
	if n := p.ep.Stats().WaitsParked.Load() - before; n != runs+1 {
		t.Fatalf("%d of %d waits parked", n, runs+1)
	}
	if allocs != 0 {
		t.Fatalf("a parked wait allocates %.1f times, want 0", allocs)
	}
}
