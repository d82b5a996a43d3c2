package core_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/proto"
)

// TestRingStress is the deadlock and ordering stress for direct dispatch:
// four processors in a ring on the bare channel fabric, every region homed
// on one processor, written by one neighbour and read by the other (under
// staticupdate, whose writes are home-only, written by the home and read
// by both). Every miss, invalidation, push and acknowledgement therefore
// crosses a processor whose own application thread is itself mid-protocol
// — the case in which a sender finds the destination's engine or token
// taken and has to fall back to the queue, and in which a chain of
// directly dispatched handlers runs around the ring. SyncTimeout turns a
// deadlock into a failure instead of a hang. Run it under -race -cpu 1,4.
func TestRingStress(t *testing.T) {
	for _, name := range []string{"sc", "update", "migratory", "staticupdate"} {
		t.Run(name, func(t *testing.T) { ringStress(t, name) })
	}
}

func ringStress(t *testing.T, protoName string) {
	const (
		procs   = 4
		perHome = 8
		rounds  = 50
	)
	cl, err := core.NewCluster(core.Options{
		Procs:           procs,
		Registry:        proto.NewRegistry(),
		DefaultProtocol: protoName,
		SyncTimeout:     30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *core.Proc) error {
		sp := p.DefaultSpace()
		me := p.ID()
		next, prev := (me+1)%procs, (me+procs-1)%procs
		var ids [procs][]core.RegionID
		for root := 0; root < procs; root++ {
			mine := make([]core.RegionID, perHome)
			if root == me {
				for i := range mine {
					mine[i] = p.GMalloc(sp, 8)
				}
			}
			ids[root] = p.BroadcastIDs(root, mine)
		}
		// Regions homed at h are written by h's predecessor and read by
		// its successor; seen from here: write next's, read prev's.
		writes, reads := ids[next], ids[prev]
		if protoName == "staticupdate" {
			writes, reads = ids[me], append(append([]core.RegionID(nil), ids[prev]...), ids[next]...)
		}
		write := func(v int64) {
			for _, id := range writes {
				r := p.Map(id)
				p.StartWrite(r)
				r.Data.SetInt64(0, v)
				p.EndWrite(r)
				p.Unmap(r)
			}
		}
		// Phased: what a round writes, the next phase must read, under
		// every protocol.
		for round := int64(1); round <= rounds; round++ {
			write(round)
			p.Barrier(sp)
			for _, id := range reads {
				r := p.Map(id)
				p.StartRead(r)
				got := r.Data.Int64(0)
				p.EndRead(r)
				p.Unmap(r)
				if got != round {
					return fmt.Errorf("%s: proc %d read %d from %v in round %d", protoName, me, got, id, round)
				}
			}
			p.Barrier(sp)
		}
		if protoName != "sc" {
			return nil
		}
		// Unphased, which only sequential consistency allows: writers and
		// readers run against each other with no barrier between them, so
		// fetches, invalidations and their acks overlap all round the
		// ring. A reader must never see a region's value go backwards.
		last := make([]int64, len(reads))
		for round := int64(rounds + 1); round <= 40*rounds; round++ {
			write(round)
			for i, id := range reads {
				r := p.Map(id)
				p.StartRead(r)
				got := r.Data.Int64(0)
				p.EndRead(r)
				p.Unmap(r)
				if got < last[i] {
					return fmt.Errorf("sc: proc %d saw %v go from %d back to %d", me, id, last[i], got)
				}
				last[i] = got
			}
		}
		p.Barrier(sp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
