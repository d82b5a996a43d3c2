package chaos

import (
	"errors"
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
)

// This file extends the conformance harness to elastic membership: the
// rejoin drill (checkpoint, kill a processor mid-schedule, revive it,
// and re-execute from the checkpoint to the model's answer) and the
// re-homing drill (MigrateHome collectives interleaved with the
// model-checked schedule). Both run the schedule through the drill's
// turn executor, with a per-turn hook for their checkpoint, kill and
// migration turns, and inherit its determinism contract: a run is
// identified by (protocol, policy, seed) and a failure reproduces
// exactly. Both need at least two processors: a victim to kill, or a
// second home to move to.

// RejoinConfig selects one rejoin drill. The embedded Config fields
// mean what they mean for Run; the policy's fault layer is always
// present (a "clean" rejoin still needs the fault-injecting transport,
// since Kill lives there — it just injects nothing).
type RejoinConfig struct {
	Config

	// Mutate, if non-nil, rewrites each rank's encoded checkpoint
	// between the crash and the rejoin — the hook the broken-rejoin
	// double uses to prove a damaged checkpoint is caught loudly
	// (decode error or model divergence), never silently installed.
	Mutate func(rank int, enc []byte) []byte
}

var rejoinRun = runner{kind: "rejoin", test: "TestRejoinFixedSeeds", regions: 5, turns: 40, minProcs: 2, killable: true}

// RunRejoin executes one rejoin drill: the model-checked schedule runs
// with a collective checkpoint a third of the way in, a seed-picked
// victim is killed two thirds in, the run fails with ErrPeerLost, and
// the cluster is revived and resumed — every rank restores its
// checkpoint (round-tripped through the binary codec, as a real rejoin
// would read it from disk), fences the restore collectively, audits
// the restored state against the sequential model at the checkpoint,
// and re-executes the rest of the schedule to the model's answer.
func RunRejoin(cfg RejoinConfig) Report {
	d := rejoinRun.start(cfg.Config)
	if d.cl == nil {
		return d.rep
	}
	defer d.cl.Close()
	n := d.cfg.Procs
	victim := 1 + d.rng.Intn(n-1)
	ckptTurn := max(d.cfg.Turns/3, 1)
	killTurn := max(2*d.cfg.Turns/3, ckptTurn+1)
	restricted := d.homeRestricted(d.cfg.Protocol)
	fail := func(format string, args ...any) Report {
		d.rep.Err = fmt.Errorf("%s: "+format, append([]any{d.name}, args...)...)
		return d.rep
	}

	// Each rank's handles, encoded checkpoint and pre-kill divergence
	// cross from the crashed run into the resumed one; ranks write
	// disjoint slots and Run/Resume joins order the accesses.
	handles := make([][]*core.Region, n)
	saved := make([][]byte, n)
	crashed := make([]error, n)
	err := d.cl.Run(func(p *core.Proc) error {
		w := d.walker(p, setupRegions(p, p.DefaultSpace(), d.cfg.Regions))
		handles[p.ID()] = w.hs
		err := w.turns(0, len(d.ops), restricted, func(i int) error {
			switch i {
			case ckptTurn:
				ck, err := p.Checkpoint(uint64(i))
				if err != nil {
					return err
				}
				saved[p.ID()] = core.EncodeCheckpoint(ck)
			case killTurn:
				// Reads once the kill is in flight are unsynchronized by
				// construction: only divergences before it count, and the
				// post-rejoin re-execution is where the model check resumes.
				crashed[p.ID()] = w.err
				if p.ID() == 0 {
					d.cl.FaultNet().Kill(amnet.NodeID(victim))
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		return fmt.Errorf("%s: proc %d survived the kill turn", d.name, p.ID())
	})
	if err := errors.Join(crashed...); err != nil {
		d.rep.Err = err
		return d.rep
	}
	if err == nil {
		return fail("killing proc %d did not take the run down", victim)
	}
	if !errors.Is(err, core.ErrPeerLost) {
		return fail("crashed run failed with %w, want ErrPeerLost", err)
	}
	for r, enc := range saved {
		if enc == nil {
			return fail("rank %d has no checkpoint from before the kill", r)
		}
	}

	if cfg.Mutate != nil {
		for r := range saved {
			saved[r] = cfg.Mutate(r, saved[r])
		}
	}
	// Decode every rank up front: a damaged checkpoint file must fail
	// the rejoin before anyone resumes, not strand peers whose restore
	// partner bailed mid-collective.
	cks := make([]*core.Checkpoint, n)
	for r, enc := range saved {
		ck, err := core.DecodeCheckpoint(enc)
		if err != nil {
			return fail("rank %d checkpoint rejected: %w", r, err)
		}
		cks[r] = ck
	}

	fn := d.cl.FaultNet()
	fn.Revive(amnet.NodeID(victim))
	fn.Quiesce()
	if err := d.cl.Revive(); err != nil {
		d.rep.Err = err
		return d.rep
	}
	return d.finish(d.cl.Resume(func(p *core.Proc) error {
		if err := p.RestoreCheckpoint(cks[p.ID()]); err != nil {
			return err
		}
		// Restore is local; fence it collectively so no processor's
		// first remote fetch can race a peer still installing its image.
		p.GlobalBarrier()

		w := d.walker(p, handles[p.ID()])
		for _, op := range d.ops[:ckptTurn] {
			if op.write {
				w.model[op.region] = op.value
			}
		}
		// Audit: the restored cut must equal the model at the checkpoint
		// on every processor before any re-execution muddies it.
		w.check("restored regions at the checkpoint")
		p.Barrier(w.sp)
		// Re-execute from the checkpoint's cursor. Determinism makes the
		// replayed writes bit-identical, so the model check is exactly the
		// crashed run's check for the same turns.
		if err := w.turns(ckptTurn, len(d.ops), restricted, nil); err != nil {
			return err
		}
		w.check("final state")
		p.Barrier(w.sp)
		return w.err
	}))
}

// MigrateConfig selects one re-homing drill. MigrateEvery is the turn
// stride between MigrateHome collectives; zero picks a default that
// lands several migrations inside the schedule.
type MigrateConfig struct {
	Config
	MigrateEvery int
}

var migrateRun = runner{kind: "migrate", test: "TestMigrateFixedSeeds", regions: 5, turns: 40, minProcs: 2}

// RunMigrate executes the model-checked schedule with region re-homing
// interleaved: every MigrateEvery turns, one region's home rotates to
// the next processor by a MigrateHome collective, and the schedule
// keeps checking reads against the sequential model across the move.
// Home-restricted protocols follow the moving home — the processor
// issuing a region's writes is always its current home, which is the
// re-homing feature's whole point.
func RunMigrate(cfg MigrateConfig) Report {
	d := migrateRun.start(cfg.Config)
	if d.cl == nil {
		return d.rep
	}
	defer d.cl.Close()
	every := cfg.MigrateEvery
	if every <= 0 {
		every = max(d.cfg.Turns/8, 3)
	}
	return d.finish(d.cl.Run(func(p *core.Proc) error {
		w := d.walker(p, setupRegions(p, p.DefaultSpace(), d.cfg.Regions))
		// w.homeOf evolves identically on every processor because
		// migrations are schedule-positional.
		migrations := 0
		err := w.turns(0, len(d.ops), d.homeRestricted(d.cfg.Protocol), func(i int) error {
			if i == 0 || i%every != 0 {
				return nil
			}
			rr := (i / every) % d.cfg.Regions
			next := (w.homeOf[rr] + 1) % d.cfg.Procs
			if err := p.MigrateHome(w.sp, w.hs[rr].ID, amnet.NodeID(next)); err != nil {
				return err // collective misuse, not a coherence divergence
			}
			w.homeOf[rr] = next
			migrations++
			return nil
		})
		if err != nil {
			return err
		}
		if migrations == 0 {
			w.fail(fmt.Errorf("%s: schedule performed no migrations (stride %d, %d turns)",
				d.name, every, d.cfg.Turns))
		}
		// The directory really moved: every processor's view of each
		// region names the tracked home.
		for r, home := range w.homeOf {
			if got := int(w.hs[r].Home); got != home {
				w.fail(fmt.Errorf("%s: proc %d sees region %d homed at %d, tracking says %d",
					d.name, p.ID(), r, got, home))
			}
		}
		w.check("after migrated schedule")
		p.Barrier(w.sp)
		// The moved directory must accept its new home as a first-class
		// writer.
		w.homeRound("after write round at migrated homes", nil)
		return w.err
	}))
}
