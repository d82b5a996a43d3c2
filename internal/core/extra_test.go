package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/faultnet"
	"github.com/acedsm/ace/internal/trace"
)

// TestNetworkSizeMismatch: a supplied network must match the proc count.
func TestNetworkSizeMismatch(t *testing.T) {
	nw, err := amnet.NewChanNetwork(amnet.ChanConfig{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if _, err := NewCluster(Options{Procs: 2, Transport: amnet.Fixed(nw)}); err == nil {
		t.Fatal("expected endpoint-count mismatch error")
	}
}

// TestLatencyOption: a fault policy's fixed delay models network latency.
func TestLatencyOption(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 2, Faults: &faultnet.Policy{Delay: 20 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	err = cl.Run(func(p *Proc) error {
		p.GlobalBarrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The barrier needs at least one inter-node round trip.
	if since := time.Since(start); since < 20*time.Millisecond {
		t.Fatalf("barrier completed in %v despite 20ms latency", since)
	}
}

// TestLockFIFOUnderContention: the home lock queue serves requesters in
// arrival order; with staggered arrivals, the observed critical sections
// never overlap (checked via a shared region only ever mutated inside
// the lock).
func TestLockFIFOUnderContention(t *testing.T) {
	const procs = 5
	run(t, procs, func(p *Proc) error {
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 16)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		for i := 0; i < 40; i++ {
			p.Lock(r)
			p.StartRead(r)
			v := r.Data.Int64(0)
			p.EndRead(r)
			p.StartWrite(r)
			r.Data.SetInt64(0, v+1)
			p.EndWrite(r)
			p.Unlock(r)
		}
		p.GlobalBarrier()
		p.StartRead(r)
		got := r.Data.Int64(0)
		p.EndRead(r)
		if got != procs*40 {
			return fmt.Errorf("lost increments under lock: %d", got)
		}
		return nil
	})
}

// TestDropCopyRules: only clean shared copies may be dropped.
func TestDropCopyRules(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 8)
			r := p.Map(id)
			p.StartWrite(r)
			r.Data.SetInt64(0, 3)
			p.EndWrite(r)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		if p.ID() == 0 {
			// The home has no droppable cached copy.
			if p.DropCopy(r) {
				return fmt.Errorf("home copy dropped")
			}
		}
		p.GlobalBarrier()
		if p.ID() == 1 {
			// Invalid: nothing to drop.
			if p.DropCopy(r) {
				return fmt.Errorf("invalid copy dropped")
			}
			p.StartRead(r)
			// In use: must refuse.
			if p.DropCopy(r) {
				return fmt.Errorf("in-use copy dropped")
			}
			p.EndRead(r)
			// Clean shared copy: dropped, and a re-read still works.
			if !p.DropCopy(r) {
				return fmt.Errorf("clean shared copy not dropped")
			}
			p.StartRead(r)
			if r.Data.Int64(0) != 3 {
				return fmt.Errorf("re-fetch after drop failed")
			}
			p.EndRead(r)
			// Exclusive: must refuse (dirty).
			p.StartWrite(r)
			r.Data.SetInt64(0, 4)
			p.EndWrite(r)
			if p.DropCopy(r) {
				return fmt.Errorf("exclusive copy dropped")
			}
		}
		p.GlobalBarrier()
		return nil
	})
}

// TestChangeProtocolRejectsUnknown and mismatch behaviors.
func TestChangeProtocolRejectsUnknown(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		sp := p.DefaultSpace()
		if err := p.ChangeProtocol(sp, "nonexistent"); err == nil {
			return fmt.Errorf("unknown protocol accepted")
		}
		return nil
	})
}

// TestUnmapTooMany panics.
func TestUnmapTooMany(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		id := p.GMalloc(p.DefaultSpace(), 8)
		r := p.Map(id)
		p.Unmap(r)
		p.Unmap(r)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "unmap of unmapped") {
		t.Fatalf("err = %v", err)
	}
}

// TestStatsSnapshot: per-proc op counters are visible through Snapshot().
func TestStatsSnapshot(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 1, Trace: &trace.Config{Counters: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		id := p.GMalloc(p.DefaultSpace(), 8)
		r := p.Map(id)
		p.StartRead(r)
		p.EndRead(r)
		s := p.Snapshot()
		if s.Ops.Get(trace.OpGMalloc) != 1 || s.Ops.Get(trace.OpMap) != 1 || s.Ops.Get(trace.OpStartRead) != 1 {
			return fmt.Errorf("stats = %+v", s.Ops)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDeferredInvalidationUnderLoad: readers hold long sections while a
// writer storms; every read section must observe internally consistent
// monotone values (the deferred-invalidation machinery under pressure).
func TestDeferredInvalidationUnderLoad(t *testing.T) {
	const procs = 4
	run(t, procs, func(p *Proc) error {
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 16)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		if p.ID() == 0 {
			for i := 1; i <= 150; i++ {
				p.StartWrite(r)
				r.Data.SetInt64(0, int64(i))
				r.Data.SetInt64(1, int64(-i))
				p.EndWrite(r)
			}
		} else {
			last := int64(0)
			for i := 0; i < 100; i++ {
				p.StartRead(r)
				a := r.Data.Int64(0)
				b := r.Data.Int64(1)
				// Within a section the two slots must be a consistent
				// pair: the writer updates them atomically inside one
				// exclusive section.
				if a != -b {
					p.EndRead(r)
					return fmt.Errorf("torn read: %d, %d", a, b)
				}
				p.EndRead(r)
				if a < last {
					return fmt.Errorf("non-monotone: %d after %d", a, last)
				}
				last = a
			}
		}
		p.GlobalBarrier()
		return nil
	})
}
