package core

import (
	"fmt"
	"testing"
)

// TestDispatchSyncStress exercises the leaf locks on the synchronization
// state: barrier arrivals, lock requests and reduction contributions from
// six processors reach node 0 (and each home) on its pump and, under
// direct dispatch, on the senders' goroutines, while every application
// thread folds its own round contribution into the same table (six
// processors take the tree topology). Under -race this is the proof
// treeMu and Directory.lockMu cover them; the lock-protected counter
// and the reduction results check the semantics.
func TestDispatchSyncStress(t *testing.T) {
	const (
		procs = 6
		iters = 40
	)
	cl, err := NewCluster(Options{Procs: procs})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		for i := 0; i < iters; i++ {
			// All-reduce: every proc contributes, and each interior
			// node's round takes its children's partials beside its
			// own application thread's value.
			want := int64(procs * i)
			if got := p.AllReduceInt64(OpSum, int64(i)); got != want {
				return fmt.Errorf("proc %d iter %d: AllReduceInt64 = %d, want %d", p.ID(), i, got, want)
			}
			// Region lock: increment a shared counter under the
			// home-queued lock; requests race into node 0's queue.
			p.Lock(r)
			p.StartWrite(r)
			r.Data.SetUint64(0, r.Data.Uint64(0)+1)
			p.EndWrite(r)
			p.Unlock(r)
			// Barrier: children's arrivals race each node's own.
			p.GlobalBarrier()
		}
		p.Lock(r)
		p.StartRead(r)
		got := r.Data.Uint64(0)
		p.EndRead(r)
		p.Unlock(r)
		if got != procs*iters {
			return fmt.Errorf("proc %d: counter = %d, want %d", p.ID(), got, procs*iters)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}
