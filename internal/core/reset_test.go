package core

import (
	"fmt"
	"testing"
)

// TestResetZeroesHomeTraffic: a space-wide reset zeroes the adaptive
// controller's per-home traffic counters, so the reset's own flush
// traffic (sc's writeback of an exclusive copy to its home) is not read
// as application signal in the next epoch's load vector.
func TestResetZeroesHomeTraffic(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 2, Adapt: &AdaptConfig{MigrateFactor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		sp, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		r := p.Map(p.BroadcastID(0, id))
		if p.ID() == 1 {
			p.StartWrite(r) // proc 1 now holds the region exclusively
			r.Data.SetInt64(0, 1)
			p.EndWrite(r)
		}
		p.GlobalBarrier()
		if err := p.ChangeProtocol(sp, "sc"); err != nil {
			return err
		}
		sp.eng.Lock()
		homeIn, regIn := sp.homeIn, len(sp.regIn)
		sp.eng.Unlock()
		if homeIn != 0 || regIn != 0 {
			return fmt.Errorf("proc %d: after ChangeProtocol homeIn = %d, regIn has %d regions; want 0, 0",
				p.ID(), homeIn, regIn)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResetWithdrawsFastBits: after every space-wide reset no region of
// the space, on any processor, publishes a fast bit its protocol would
// not grant in the region's current state. Each row first warms fast
// bits on cached copies with read hits on non-home processors, so a
// reset that forgets the withdrawal leaves a stale bit behind. FreeSpace
// instead must leave none of the space's regions in the region table.
func TestResetWithdrawsFastBits(t *testing.T) {
	rows := []struct {
		name string
		op   func(p *Proc, sp *Space, ids []RegionID, ck *Checkpoint) error
	}{
		{"ChangeProtocol", func(p *Proc, sp *Space, _ []RegionID, _ *Checkpoint) error {
			return p.ChangeProtocol(sp, "sc")
		}},
		{"MigrateHome", func(p *Proc, sp *Space, ids []RegionID, _ *Checkpoint) error {
			return p.MigrateHome(sp, ids[0], 2)
		}},
		{"Checkpoint", func(p *Proc, _ *Space, _ []RegionID, _ *Checkpoint) error {
			_, err := p.Checkpoint(1)
			return err
		}},
		{"RestoreCheckpoint", func(p *Proc, _ *Space, _ []RegionID, ck *Checkpoint) error {
			p.GlobalBarrier() // no traffic in flight while restoring
			return p.RestoreCheckpoint(ck)
		}},
		{"FreeSpace", func(p *Proc, sp *Space, _ []RegionID, _ *Checkpoint) error {
			return p.FreeSpace(sp)
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			run(t, 3, func(p *Proc) error {
				sp, err := p.NewSpace("sc")
				if err != nil {
					return err
				}
				// Two regions homed at 0 and one at 1, so every processor
				// caches copies and a migration leaves unflipped ones.
				ids := make([]RegionID, 3)
				for i, home := range []int{0, 0, 1} {
					if p.ID() == home {
						ids[i] = p.GMalloc(sp, 8)
					}
					ids[i] = p.BroadcastID(home, ids[i])
				}
				ck, err := p.Checkpoint(0)
				if err != nil {
					return err
				}
				for _, id := range ids {
					r := p.Map(id)
					for k := 0; k < 2; k++ {
						p.StartRead(r)
						p.EndRead(r)
					}
					if !r.IsHome() && r.hot.Load()&rwFastRead == 0 {
						return fmt.Errorf("proc %d: cached %v did not warm its fast-read bit", p.ID(), id)
					}
				}
				if err := row.op(p, sp, ids, ck); err != nil {
					return err
				}
				if row.name == "FreeSpace" {
					for _, id := range ids {
						if p.ctx.Region(id) != nil {
							return fmt.Errorf("proc %d: freed space's region %v still in the table", p.ID(), id)
						}
					}
					return nil
				}
				err = staleFastBits(p, sp, ids)
				p.GlobalBarrier()
				return err
			})
		})
	}
}

// staleFastBits reports the first region among ids whose published fast
// bits exceed what sp's protocol grants it now.
func staleFastBits(p *Proc, sp *Space, ids []RegionID) error {
	sp.eng.Lock()
	defer sp.eng.Unlock()
	for _, id := range ids {
		r := p.ctx.Region(id)
		if r == nil {
			continue
		}
		got := FastBits(r.hot.Load() & rwFastMask >> rwFastShift)
		var want FastBits
		if sp.fp != nil {
			want = sp.fp.FastBits(r)
		}
		if got&^want != 0 {
			return fmt.Errorf("proc %d: %v publishes fast bits %b, protocol grants %b", p.ID(), id, got, want)
		}
	}
	return nil
}

// TestLifecycleCollectiveRounds pins the collective rounds each space
// lifecycle operation enters on every processor under sc. NewSpace on a
// fresh slot, ChangeProtocol, MigrateHome and Checkpoint verify the call
// with one broadcast, and those that reset the space add the flush
// barriers (fence, flush, leave together); MigrateHome adds the home
// agreement and the pull barrier. FreeSpace verifies and fences in one
// round, and adds the flush barrier only when a processor holds a
// cached copy; it does not leave together, so NewSpace on the slot it
// recycled verifies with a round, which waits for every processor to
// finish freeing.
func TestLifecycleCollectiveRounds(t *testing.T) {
	type rounds struct{ barriers, bcasts, reduces uint64 }
	run(t, 3, func(p *Proc) error {
		check := func(name string, want rounds, fn func() error) error {
			before := p.coll.Snapshot()
			if err := fn(); err != nil {
				return err
			}
			after := p.coll.Snapshot()
			got := rounds{after.Barriers - before.Barriers, after.Bcasts - before.Bcasts, after.Reduces - before.Reduces}
			if got != want {
				return fmt.Errorf("proc %d: %s entered %+v collective rounds, want %+v", p.ID(), name, got, want)
			}
			return nil
		}
		var sp *Space
		if err := check("NewSpace", rounds{bcasts: 1}, func() (err error) {
			sp, err = p.NewSpace("sc")
			return err
		}); err != nil {
			return err
		}
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		p.StartRead(r)
		p.EndRead(r)
		for _, s := range []struct {
			name string
			want rounds
			fn   func() error
		}{
			{"ChangeProtocol", rounds{barriers: 3, bcasts: 1}, func() error { return p.ChangeProtocol(sp, "sc") }},
			{"MigrateHome", rounds{barriers: 4, bcasts: 1, reduces: 1}, func() error { return p.MigrateHome(sp, id, 1) }},
			{"Checkpoint", rounds{barriers: 3, bcasts: 1}, func() error { _, err := p.Checkpoint(0); return err }},
			{"FreeSpace", rounds{barriers: 1, reduces: 1}, func() error { return p.FreeSpace(sp) }},
			{"NewSpace recycled", rounds{reduces: 1}, func() (err error) {
				sp, err = p.NewSpace("sc")
				return err
			}},
		} {
			if err := check(s.name, s.want, s.fn); err != nil {
				return err
			}
		}
		// Only the home ever brackets the new space's region: nothing is
		// cached, so FreeSpace skips the flush.
		if p.ID() == 0 {
			r := p.Map(p.GMalloc(sp, 8))
			p.StartWrite(r)
			p.EndWrite(r)
		}
		return check("FreeSpace home-only", rounds{reduces: 1}, func() error { return p.FreeSpace(sp) })
	})
}
