package proto

import (
	"fmt"
	"testing"

	"github.com/acedsm/ace/internal/core"
)

// ChangeProtocol semantics (Section 3.1): "changing from the default
// protocol to any other protocol results in all cached regions being
// flushed back to their home processors" — and symmetrically, every
// library protocol's FlushSpace must leave homes authoritative. These
// tests drive each protocol through a write → ChangeProtocol → read
// sequence that only succeeds if the flush is correct.

// flushSequence writes under `from`, switches to `to`, and checks the
// data survived at a reader.
func flushSequence(t *testing.T, from, to string, homeWriteOnly bool) {
	t.Helper()
	run(t, 4, from, func(p *core.Proc) error {
		sp := p.DefaultSpace()
		ids := make([]core.RegionID, 4)
		for root := 0; root < 4; root++ {
			var mine core.RegionID
			if p.ID() == root {
				mine = p.GMalloc(sp, 8)
			}
			ids[root] = p.BroadcastID(root, mine)
		}
		// Writer selection: home-restricted protocols write their own
		// region; others write a rotated target (so the dirty copy is
		// remote and must be flushed).
		target := p.ID()
		if !homeWriteOnly {
			target = (p.ID() + 1) % 4
		}
		r := p.Map(ids[target])
		p.StartWrite(r)
		r.Data.SetInt64(0, int64(100+target))
		p.EndWrite(r)
		p.Barrier(sp)
		if err := p.ChangeProtocol(sp, to); err != nil {
			return err
		}
		for q := 0; q < 4; q++ {
			h := p.Map(ids[q])
			p.StartRead(h)
			if got := h.Data.Int64(0); got != int64(100+q) {
				return fmt.Errorf("%s->%s: region %d = %d after change", from, to, q, got)
			}
			p.EndRead(h)
			p.Unmap(h)
		}
		p.GlobalBarrier()
		return nil
	})
}

func TestFlushAcrossProtocolPairs(t *testing.T) {
	cases := []struct {
		from, to      string
		homeWriteOnly bool
	}{
		{"sc", "update", false},
		{"sc", "migratory", false},
		{"update", "sc", false},
		{"migratory", "sc", false},
		{"migratory", "update", false},
		{"writethrough", "sc", false},
		{"atomic", "sc", false},
		{"homewrite", "sc", true},
		{"staticupdate", "sc", true},
		{"sc", "homewrite", true},
	}
	for _, c := range cases {
		t.Run(c.from+"_to_"+c.to, func(t *testing.T) {
			flushSequence(t, c.from, c.to, c.homeWriteOnly)
		})
	}
}

// TestMigratoryOwnershipReturnsOnFlush: a remote processor holds the
// region when the protocol changes; the home must get the data back.
func TestMigratoryOwnershipReturnsOnFlush(t *testing.T) {
	run(t, 2, "migratory", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		if p.ID() == 1 {
			p.StartWrite(r)
			r.Data.SetInt64(0, 77)
			p.EndWrite(r)
			// Proc 1 still owns the region here.
		}
		p.GlobalBarrier()
		if err := p.ChangeProtocol(sp, "sc"); err != nil {
			return err
		}
		if p.ID() == 0 {
			p.StartRead(r)
			if got := r.Data.Int64(0); got != 77 {
				return fmt.Errorf("home lost migrated data: %d", got)
			}
			p.EndRead(r)
		}
		p.GlobalBarrier()
		return nil
	})
}

// TestPipelineFlushDrains: contributions in flight when the protocol
// changes must land before the switch.
func TestPipelineFlushDrains(t *testing.T) {
	run(t, 4, "pipeline", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		p.Barrier(sp)
		p.StartWrite(r)
		r.Data.SetFloat64(0, r.Data.Float64(0)+1)
		p.EndWrite(r)
		// No barrier: the adds are still in flight when the collective
		// ChangeProtocol begins; FlushSpace must drain them.
		if err := p.ChangeProtocol(sp, "sc"); err != nil {
			return err
		}
		p.StartRead(r)
		got := r.Data.Float64(0)
		p.EndRead(r)
		if got != 4 {
			return fmt.Errorf("pipeline flush lost adds: %v", got)
		}
		p.GlobalBarrier()
		return nil
	})
}

// TestStaticUpdateRemoteWritePanics: the protocol's checkable contract.
func TestStaticUpdateRemoteWritePanics(t *testing.T) {
	cl, err := core.NewCluster(core.Options{Procs: 2, Registry: NewRegistry(), DefaultProtocol: "staticupdate"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		if p.ID() == 1 {
			r := p.Map(id)
			p.StartWrite(r) // must panic: writes are home-local
			p.EndWrite(r)
		}
		return nil
	})
	if err == nil {
		t.Fatal("remote write under staticupdate should fail loudly")
	}
}

// TestHomeWriteRemoteWritePanics: same contract for homewrite.
func TestHomeWriteRemoteWritePanics(t *testing.T) {
	cl, err := core.NewCluster(core.Options{Procs: 2, Registry: NewRegistry(), DefaultProtocol: "homewrite"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		if p.ID() == 1 {
			r := p.Map(id)
			p.StartWrite(r)
			p.EndWrite(r)
		}
		return nil
	})
	if err == nil {
		t.Fatal("remote write under homewrite should fail loudly")
	}
}

// TestAtomicReadsSeeFreshValue: StartRead always fetches from the home.
func TestAtomicReadsSeeFreshValue(t *testing.T) {
	run(t, 2, "atomic", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		for i := 1; i <= 10; i++ {
			if p.ID() == 0 {
				p.StartWrite(r)
				r.Data.SetInt64(0, int64(i))
				p.EndWrite(r)
			}
			p.Barrier(sp)
			p.StartRead(r)
			if got := r.Data.Int64(0); got != int64(i) {
				return fmt.Errorf("iter %d: read %d", i, got)
			}
			p.EndRead(r)
			p.Barrier(sp)
		}
		return nil
	})
}

// TestAtomicSnapshotsAreWhole: a read never sees half of a write. Both
// processors bump a two-word value whose words must agree and read it
// back between bumps, so the home reads while a remote release lands
// and a remote fetch arrives while the home writes. Under -race this
// also checks that the home's unlocked accesses to its copy never meet
// a handler's.
func TestAtomicSnapshotsAreWhole(t *testing.T) {
	const procs, rounds = 2, 200
	run(t, procs, "atomic", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 16)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		for i := 0; i < rounds; i++ {
			p.StartWrite(r)
			v := r.Data.Int64(0) + 1
			r.Data.SetInt64(0, v)
			r.Data.SetInt64(1, v)
			p.EndWrite(r)
			p.StartRead(r)
			a, b := r.Data.Int64(0), r.Data.Int64(1)
			p.EndRead(r)
			if a != b {
				return fmt.Errorf("round %d: read a torn value %d/%d", i, a, b)
			}
		}
		p.Barrier(sp)
		p.StartRead(r)
		defer p.EndRead(r)
		if got := r.Data.Int64(0); got != procs*rounds {
			return fmt.Errorf("final value %d, want %d", got, procs*rounds)
		}
		return nil
	})
}

// TestUpdateLateJoiner: a processor that first touches a region long
// after others have been exchanging updates must still read current data.
func TestUpdateLateJoiner(t *testing.T) {
	run(t, 3, "update", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		for i := 1; i <= 5; i++ {
			if p.ID() == 0 {
				r := p.Map(id)
				p.StartWrite(r)
				r.Data.SetInt64(0, int64(i))
				p.EndWrite(r)
				p.Unmap(r)
			}
			p.Barrier(sp)
			// Proc 2 joins only at the last iteration.
			if p.ID() != 2 || i == 5 {
				r := p.Map(id)
				p.StartRead(r)
				if got := r.Data.Int64(0); got != int64(i) {
					return fmt.Errorf("proc %d iter %d: read %d", p.ID(), i, got)
				}
				p.EndRead(r)
				p.Unmap(r)
			}
			p.Barrier(sp)
		}
		return nil
	})
}

// TestDirtyWritesSurviveCollectives: a write still on the dirty list
// when a space-wide collective runs must reach its sharers — the
// collective's FlushSpace ships it — and must not leave the region
// marked so that later writes are never pushed. Checkpoint flushes every
// space; a ChangeProtocol to the protocol already installed flushes the
// space and starts it afresh. Proc 1 is the sharer that reads. In the
// plain rows the home writes (2 procs, home 0); in the remote_writer
// rows proc 0 writes a region homed on proc 2 (3 procs), so the write
// is shipped from a processor that is not the home. staticupdate takes
// no remote writes and has only the plain rows. A wrong read is
// recorded and the barriers go on, so a divergence fails at once rather
// than at the SyncTimeout.
func TestDirtyWritesSurviveCollectives(t *testing.T) {
	collectives := []struct {
		name string
		run  func(p *core.Proc, sp *core.Space) error
	}{
		{"checkpoint", func(p *core.Proc, sp *core.Space) error {
			_, err := p.Checkpoint(1)
			return err
		}},
		{"change_protocol", func(p *core.Proc, sp *core.Space) error {
			return p.ChangeProtocol(sp, sp.ProtoName)
		}},
	}
	writers := []struct {
		suffix      string
		procs, home int
	}{
		{"", 2, 0},
		{"/remote_writer", 3, 2},
	}
	const writer, reader = 0, 1
	for _, proto := range []string{"staticupdate", "update", "writethrough"} {
		for _, c := range collectives {
			for _, w := range writers {
				if proto == "staticupdate" && w.home != writer {
					continue
				}
				t.Run(proto+"/"+c.name+w.suffix, func(t *testing.T) {
					run(t, w.procs, proto, func(p *core.Proc) error {
						sp := p.DefaultSpace()
						var id core.RegionID
						if p.ID() == w.home {
							id = p.GMalloc(sp, 8)
						}
						id = p.BroadcastID(w.home, id)
						r := p.Map(id)
						write := func(v int64) {
							if p.ID() == writer {
								p.StartWrite(r)
								r.Data.SetInt64(0, v)
								p.EndWrite(r)
							}
						}
						var bad error
						check := func(want int64) {
							if p.ID() == reader {
								p.StartRead(r)
								got := r.Data.Int64(0)
								p.EndRead(r)
								if got != want && bad == nil {
									bad = fmt.Errorf("sharer read %d, want %d", got, want)
								}
							}
							p.Barrier(sp)
						}
						write(1)
						p.Barrier(sp)
						check(1)
						write(2)
						if err := c.run(p, sp); err != nil {
							return err
						}
						p.Barrier(sp)
						check(2)
						write(3)
						p.Barrier(sp)
						check(3)
						return bad
					})
				})
			}
		}
	}
}
