package proto

import (
	"fmt"
	"testing"

	"github.com/acedsm/ace/internal/core"
)

// sumViolations gathers the global conflict count after a barrier.
func sumViolations(p *core.Proc, sp *core.Space) int64 {
	return p.AllReduceInt64(core.OpSum, RaceViolations(sp))
}

// TestRaceCheckCleanProgram: a properly phased program reports zero
// conflicts.
func TestRaceCheckCleanProgram(t *testing.T) {
	run(t, 4, "racecheck", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		ids := make([]core.RegionID, 4)
		for root := 0; root < 4; root++ {
			var mine core.RegionID
			if p.ID() == root {
				mine = p.GMalloc(sp, 8)
			}
			ids[root] = p.BroadcastID(root, mine)
		}
		for iter := 1; iter <= 4; iter++ {
			mine := p.Map(ids[p.ID()])
			p.StartWrite(mine)
			mine.Data.SetInt64(0, int64(iter))
			p.EndWrite(mine)
			p.Unmap(mine)
			p.Barrier(sp)
			for q := 0; q < 4; q++ {
				r := p.Map(ids[q])
				p.StartRead(r)
				if r.Data.Int64(0) != int64(iter) {
					return fmt.Errorf("phase data wrong")
				}
				p.EndRead(r)
				p.Unmap(r)
			}
			p.Barrier(sp)
		}
		if v := sumViolations(p, sp); v != 0 {
			return fmt.Errorf("clean program reported %d conflicts", v)
		}
		return nil
	})
}

// TestRaceCheckDetectsWriteRace: everyone writes the same region with no
// synchronization; the checker must flag it.
func TestRaceCheckDetectsWriteRace(t *testing.T) {
	run(t, 4, "racecheck", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		p.Barrier(sp)
		// Hold write sections open across a rendezvous so the overlap is
		// certain: the region's home is processor 0, which also runs the
		// reduction, and each processor's reduction contribution is
		// FIFO-ordered behind its section-open notification — so all
		// opens reach the home before any close can be sent.
		//
		// The overlap under test is the protocol's, not Go's: only the
		// non-home processors store, each into its own cached copy. A
		// store by the home would land in the home copy while the others'
		// opening fetches read it — a real data race, which the race
		// detector rightly fails the test for.
		p.StartWrite(r)
		if p.ID() != 0 {
			r.Data.SetInt64(0, int64(p.ID()))
		}
		p.AllReduceInt64(core.OpSum, 1) // not a space barrier: sections stay open
		p.EndWrite(r)
		p.Barrier(sp)
		if v := sumViolations(p, sp); v == 0 {
			return fmt.Errorf("overlapping writes not detected")
		}
		return nil
	})
}

// TestRaceCheckDetectsReadWriteRace: a reader holds a section open while
// a writer enters.
func TestRaceCheckDetectsReadWriteRace(t *testing.T) {
	run(t, 2, "racecheck", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		p.Barrier(sp)
		if p.ID() == 1 {
			p.StartRead(r)
		}
		p.Broadcast(1, []byte("reader-open"))
		if p.ID() == 0 {
			p.StartWrite(r)
			r.Data.SetInt64(0, 5)
			p.EndWrite(r)
		}
		p.Broadcast(0, []byte("writer-done"))
		if p.ID() == 1 {
			p.EndRead(r)
		}
		p.Barrier(sp)
		if v := sumViolations(p, sp); v == 0 {
			return fmt.Errorf("read/write overlap not detected")
		}
		return nil
	})
}

// TestRaceViolationsPanicsOnWrongSpace documents the accessor's contract.
func TestRaceViolationsPanicsOnWrongSpace(t *testing.T) {
	run(t, 1, "sc", func(p *core.Proc) error {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for non-racecheck space")
			}
		}()
		RaceViolations(p.DefaultSpace())
		return nil
	})
}
