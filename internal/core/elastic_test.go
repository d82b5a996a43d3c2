package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/faultnet"
)

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
