package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/faultnet"
)

// TestMigrateHomeRace runs under the race detector (this package is in
// RACE_PKGS): brackets hammer the fast path on a working set of regions
// while MigrateHome collectives rotate every region's home between the
// hammering rounds. Each processor's flush and directory traffic is
// delivered — on its pump, or under direct dispatch on the senders'
// goroutines — concurrently with the application thread's fast-path
// CASes: the surface the migration flip (withdraw, move directory,
// republish) must keep race-free.
func TestMigrateHomeRace(t *testing.T) {
	const procs, regions, rounds = 4, 4, 16
	cl, err := NewCluster(Options{Procs: procs, SyncTimeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		sp := p.DefaultSpace()
		ids := make([]RegionID, regions)
		for r := 0; r < regions; r++ {
			if r%procs == p.ID() {
				ids[r] = p.GMalloc(sp, 8)
			}
			ids[r] = p.BroadcastID(r%procs, ids[r])
		}
		hs := make([]*Region, regions)
		for r, id := range ids {
			hs[r] = p.Map(id)
			p.StartRead(hs[r])
			p.EndRead(hs[r])
		}
		p.Barrier(sp)
		homeOf := make([]int, regions)
		for r := range homeOf {
			homeOf[r] = r % procs
		}
		for round := 0; round < rounds; round++ {
			for r := 0; r < regions; r++ {
				if homeOf[r] == p.ID() {
					p.StartWrite(hs[r])
					hs[r].Data.SetInt64(0, int64(round*regions+r))
					p.EndWrite(hs[r])
				}
			}
			p.Barrier(sp)
			// Hammer the bracket fast path: after the first slow
			// fetch, these reads should be eligibility-bit hits
			// racing only the pump's withdraw/republish.
			for k := 0; k < 120; k++ {
				h := hs[k%regions]
				p.StartRead(h)
				got := h.Data.Int64(0)
				p.EndRead(h)
				if want := int64(round*regions + k%regions); got != want {
					return fmt.Errorf("proc %d round %d: region %d = %d, want %d",
						p.ID(), round, k%regions, got, want)
				}
			}
			p.Barrier(sp)
			// Rotate every region's home while cached copies and
			// fast bits from the hammering are still hot.
			for r := 0; r < regions; r++ {
				next := (homeOf[r] + 1) % procs
				if err := p.MigrateHome(sp, ids[r], amnet.NodeID(next)); err != nil {
					return err
				}
				homeOf[r] = next
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRejoinVsTreeReduction: a five-processor cluster runs a stream of
// jitter-delayed AllReduce rounds with a collective checkpoint partway
// in; a victim is killed while peers are skewed across in-flight
// reductions, and the survivors fail typed. The crashed cluster is
// closed, and a new one on the same fault policy restores the
// checkpoint and re-reduces to the same answers.
func TestRejoinVsTreeReduction(t *testing.T) {
	const procs, total, ckptAt, killAt = 5, 30, 10, 20
	victim := amnet.NodeID(procs - 1)
	start := func() *Cluster {
		cl, err := NewCluster(Options{
			Procs: procs,
			Faults: &faultnet.Policy{
				Seed:   7,
				Delay:  20 * time.Microsecond,
				Jitter: 300 * time.Microsecond,
			},
			SyncTimeout: time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	cl := start()
	expect := func(i int) int64 {
		var s int64
		for id := 0; id < procs; id++ {
			s += int64((id + 1) * (i + 7))
		}
		return s
	}
	saved := make([][]byte, procs)
	err := cl.Run(func(p *Proc) error {
		for i := 0; i < total; i++ {
			if i == ckptAt {
				ck, err := p.Checkpoint(uint64(i))
				if err != nil {
					return err
				}
				saved[p.ID()] = EncodeCheckpoint(ck)
			}
			if i == killAt && p.ID() == 0 {
				cl.FaultNet().Kill(victim)
			}
			got := p.AllReduceInt64(OpSum, int64((p.ID()+1)*(i+7)))
			if i < killAt && got != expect(i) {
				return fmt.Errorf("proc %d round %d: reduced %d, want %d", p.ID(), i, got, expect(i))
			}
		}
		return fmt.Errorf("proc %d survived the kill", p.ID())
	})
	cl.Close()
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("crashed run failed with %v, want ErrPeerLost", err)
	}
	for r, enc := range saved {
		if enc == nil {
			t.Fatalf("rank %d has no checkpoint", r)
		}
	}
	cl = start()
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		ck, err := DecodeCheckpoint(saved[p.ID()])
		if err != nil {
			return err
		}
		if err := p.RestoreCheckpoint(ck); err != nil {
			return err
		}
		// Restore is local; fence it collectively before re-execution.
		p.GlobalBarrier()
		for i := ckptAt; i < total; i++ {
			got := p.AllReduceInt64(OpSum, int64((p.ID()+1)*(i+7)))
			if got != expect(i) {
				return fmt.Errorf("proc %d replayed round %d: reduced %d, want %d", p.ID(), i, got, expect(i))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
}
