package core

import (
	"fmt"
	"testing"
)

// TestResetWithdrawsFastBits: after every space-wide reset no region of
// the space, on any processor, publishes a fast bit its protocol would
// not grant in the region's current state. Each row first warms fast
// bits on cached copies with read hits on non-home processors, so a
// reset that forgets the withdrawal leaves a stale bit behind. FreeSpace
// instead must leave none of the space's regions in the region table.
func TestResetWithdrawsFastBits(t *testing.T) {
	rows := []struct {
		name string
		op   func(p *Proc, sp *Space, ck *Checkpoint) error
	}{
		{"ChangeProtocol", func(p *Proc, sp *Space, _ *Checkpoint) error {
			return p.ChangeProtocol(sp, "sc")
		}},
		{"Checkpoint", func(p *Proc, _ *Space, _ *Checkpoint) error {
			_, err := p.Checkpoint(1)
			return err
		}},
		{"RestoreCheckpoint", func(p *Proc, _ *Space, ck *Checkpoint) error {
			p.GlobalBarrier() // no traffic in flight while restoring
			return p.RestoreCheckpoint(ck)
		}},
		{"FreeSpace", func(p *Proc, sp *Space, _ *Checkpoint) error {
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
				// caches copies.
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
				if err := row.op(p, sp, ck); err != nil {
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
// lifecycle operation enters on every processor under sc. Every one
// opens with one verifying round, which also fences. ChangeProtocol,
// Checkpoint and FreeSpace add the flush barrier only when a processor
// holds a cached copy; ChangeProtocol and Checkpoint then leave
// together (one more barrier). FreeSpace does not, so NewSpace's round
// on the slot it recycled waits for every processor to finish freeing.
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
		if err := check("NewSpace", rounds{reduces: 1}, func() (err error) {
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
			{"ChangeProtocol", rounds{barriers: 2, reduces: 1}, func() error { return p.ChangeProtocol(sp, "sc") }},
			{"Checkpoint", rounds{barriers: 2, reduces: 1}, func() error { _, err := p.Checkpoint(0); return err }},
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
		// cached, so ChangeProtocol and FreeSpace skip the flush.
		if p.ID() == 0 {
			r := p.Map(p.GMalloc(sp, 8))
			p.StartWrite(r)
			p.EndWrite(r)
		}
		if err := check("ChangeProtocol home-only", rounds{barriers: 1, reduces: 1}, func() error { return p.ChangeProtocol(sp, "sc") }); err != nil {
			return err
		}
		return check("FreeSpace home-only", rounds{reduces: 1}, func() error { return p.FreeSpace(sp) })
	})
}
