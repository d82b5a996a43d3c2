package chaos

import (
	"errors"
	"fmt"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
)

// This file extends the conformance harness to elastic membership: the
// rejoin drill (checkpoint, kill a processor mid-schedule, restore the
// checkpoint into a new cluster, and re-execute from it to the model's
// answer). It runs the schedule through the drill's turn executor, with
// a per-turn hook for its checkpoint and kill turns, and inherits its
// determinism contract: a run is identified by (protocol, policy, seed)
// and a failure reproduces exactly. It needs at least two processors,
// one of them a victim to kill.

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
// victim is killed two thirds in, and the run fails with ErrPeerLost.
// The crashed cluster is closed. Recovery is acenode's: a second
// cluster on the same policy and seed re-runs the setup, every rank
// restores its checkpoint (round-tripped through the binary codec, as
// a real rejoin reads it from disk), fences the restore collectively,
// audits the restored state against the sequential model at the
// checkpoint, and re-executes the rest of the schedule to the model's
// answer.
func RunRejoin(cfg RejoinConfig) Report {
	d := rejoinRun.start(cfg.Config)
	if d.cl == nil {
		return d.rep
	}
	n := d.cfg.Procs
	victim := 1 + d.rng.Intn(n-1)
	ckptTurn := max(d.cfg.Turns/3, 1)
	killTurn := max(2*d.cfg.Turns/3, ckptTurn+1)
	restricted := d.homeRestricted(d.cfg.Protocol)
	fail := func(format string, args ...any) Report {
		d.rep.Err = fmt.Errorf("%s: "+format, append([]any{d.name}, args...)...)
		return d.rep
	}

	// Each rank's encoded checkpoint and pre-kill divergence are all
	// that crosses into the recovery; ranks write disjoint slots and
	// Run's join orders the accesses.
	saved := make([][]byte, n)
	crashed := make([]error, n)
	err := d.cl.Run(func(p *core.Proc) error {
		w := d.walker(p, setupRegions(p, p.DefaultSpace(), d.cfg.Regions))
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
				// recovered re-execution is where the model check resumes.
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
	// A cluster that lost a peer is finished. The faults it saw count
	// toward the report with the recovered run's.
	crashFaults := d.cl.Metrics().Net.Faults
	d.cl.Close()
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

	rd := rejoinRun.start(cfg.Config)
	if rd.cl == nil {
		return rd.rep
	}
	defer rd.cl.Close()
	rep := rd.finish(rd.cl.Run(func(p *core.Proc) error {
		w := rd.walker(p, setupRegions(p, p.DefaultSpace(), rd.cfg.Regions))
		if err := p.RestoreCheckpoint(cks[p.ID()]); err != nil {
			return err
		}
		// Restore is local; fence it collectively so no processor's
		// first remote fetch can race a peer still installing its image.
		p.GlobalBarrier()
		for _, op := range rd.ops[:ckptTurn] {
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
		if err := w.turns(ckptTurn, len(rd.ops), restricted, nil); err != nil {
			return err
		}
		w.check("final state")
		p.Barrier(w.sp)
		return w.err
	}))
	rep.Faults = rep.Faults.Add(crashFaults)
	rep.CrashFaults = crashFaults
	return rep
}
