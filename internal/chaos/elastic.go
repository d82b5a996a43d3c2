package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/faultnet"
	"github.com/acedsm/ace/proto"
)

// This file extends the conformance harness to elastic membership: the
// rejoin drill (checkpoint, kill a processor mid-schedule, revive it,
// and re-execute from the checkpoint to the model's answer) and the
// re-homing drill (MigrateHome collectives interleaved with the
// model-checked schedule). Both inherit the harness's determinism
// contract: a run is identified by (protocol, policy, seed) and a
// failure reproduces exactly.

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

// RunRejoin executes one rejoin drill: the model-checked schedule runs
// with a collective checkpoint a third of the way in, a seed-picked
// victim is killed two thirds in, the run fails with ErrPeerLost, and
// the cluster is revived and resumed — every rank restores its
// checkpoint (round-tripped through the binary codec, as a real rejoin
// would read it from disk), fences the restore collectively, audits
// the restored state against the sequential model at the checkpoint,
// and re-executes the rest of the schedule to the model's answer.
func RunRejoin(cfg RejoinConfig) Report {
	if cfg.Procs <= 1 {
		cfg.Procs = 4
	}
	if cfg.Regions <= 0 {
		cfg.Regions = 5
	}
	if cfg.Turns <= 0 {
		cfg.Turns = 40
	}
	if cfg.Policy == "" {
		cfg.Policy = "clean"
	}
	rep := Report{
		Protocol: cfg.Protocol,
		Policy:   cfg.Policy,
		Seed:     cfg.Seed,
		Replay: fmt.Sprintf("go test ./internal/chaos -run 'TestRejoinFixedSeeds/%s/%s' (seed %d)",
			cfg.Protocol, cfg.Policy, cfg.Seed),
	}
	pol, err := PolicyByName(cfg.Policy, cfg.Seed)
	if err != nil {
		rep.Err = err
		return rep
	}
	if pol == nil {
		// Kill lives on the fault layer, so the clean drill runs with an
		// empty policy rather than none.
		pol = &faultnet.Policy{Seed: cfg.Seed}
	}
	reg := proto.NewRegistry()
	if _, ok := reg.Lookup(cfg.Protocol); !ok {
		rep.Err = fmt.Errorf("chaos: unknown protocol %q", cfg.Protocol)
		return rep
	}
	cl, err := core.NewCluster(core.Options{
		Procs:           cfg.Procs,
		Registry:        reg,
		DefaultProtocol: cfg.Protocol,
		Faults:          pol,
		SyncTimeout:     2 * time.Minute,
	})
	if err != nil {
		rep.Err = err
		return rep
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(cfg.Seed))
	ops := genSchedule(rng, cfg.Procs, cfg.Regions, cfg.Turns)
	if homeRestricted(cfg.Protocol) {
		for i := range ops {
			if ops[i].write {
				ops[i].proc = ops[i].region % cfg.Procs
			}
		}
	}
	victim := 1 + rng.Intn(cfg.Procs-1)
	ckptTurn := cfg.Turns / 3
	if ckptTurn < 1 {
		ckptTurn = 1
	}
	killTurn := 2 * cfg.Turns / 3
	if killTurn <= ckptTurn {
		killTurn = ckptTurn + 1
	}

	// Each rank's handles and encoded checkpoint cross from the crashed
	// run into the resumed one; ranks write disjoint slots and Run/Resume
	// joins order the accesses.
	handles := make([][]*core.Region, cfg.Procs)
	saved := make([][]byte, cfg.Procs)

	err = cl.Run(func(p *core.Proc) error {
		sp := p.DefaultSpace()
		hs := setupRegions(p, sp, cfg.Regions)
		handles[p.ID()] = hs
		model := make([]int64, cfg.Regions)
		for i, op := range ops {
			if i == ckptTurn {
				ck, err := p.Checkpoint(uint64(i))
				if err != nil {
					return err
				}
				saved[p.ID()] = core.EncodeCheckpoint(ck)
			}
			if i == killTurn && p.ID() == 0 {
				cl.FaultNet().Kill(amnet.NodeID(victim))
			}
			if op.proc == p.ID() {
				h := hs[op.region]
				if op.write {
					p.StartWrite(h)
					h.Data.SetInt64(0, op.value)
					p.EndWrite(h)
				} else if i < killTurn {
					// Reads once the kill is in flight are unsynchronized
					// by construction; the post-rejoin re-execution is
					// where the model check resumes.
					p.StartRead(h)
					got := h.Data.Int64(0)
					p.EndRead(h)
					if want := model[op.region]; got != want {
						return fmt.Errorf("rejoin %s/%s seed %d: op %d: proc %d read region %d = %d, model says %d",
							cfg.Protocol, cfg.Policy, cfg.Seed, i, p.ID(), op.region, got, want)
					}
				}
			}
			if op.write {
				model[op.region] = op.value
			}
			p.Barrier(sp)
		}
		return fmt.Errorf("rejoin %s/%s seed %d: proc %d survived the kill turn", cfg.Protocol, cfg.Policy, cfg.Seed, p.ID())
	})
	if err == nil {
		rep.Err = fmt.Errorf("rejoin %s/%s seed %d: killing proc %d did not take the run down",
			cfg.Protocol, cfg.Policy, cfg.Seed, victim)
		return rep
	}
	if !errors.Is(err, core.ErrPeerLost) {
		rep.Err = fmt.Errorf("rejoin %s/%s seed %d: crashed run failed with %w, want ErrPeerLost",
			cfg.Protocol, cfg.Policy, cfg.Seed, err)
		return rep
	}
	for r, enc := range saved {
		if enc == nil {
			rep.Err = fmt.Errorf("rejoin %s/%s seed %d: rank %d has no checkpoint from before the kill",
				cfg.Protocol, cfg.Policy, cfg.Seed, r)
			return rep
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
	cks := make([]*core.Checkpoint, cfg.Procs)
	for r, enc := range saved {
		ck, err := core.DecodeCheckpoint(enc)
		if err != nil {
			rep.Err = fmt.Errorf("rejoin %s/%s seed %d: rank %d checkpoint rejected: %w",
				cfg.Protocol, cfg.Policy, cfg.Seed, r, err)
			return rep
		}
		cks[r] = ck
	}

	fn := cl.FaultNet()
	fn.Revive(amnet.NodeID(victim))
	fn.Quiesce()
	if err := cl.Revive(); err != nil {
		rep.Err = err
		return rep
	}
	rep.Err = cl.Resume(func(p *core.Proc) error {
		sp := p.DefaultSpace()
		hs := handles[p.ID()]
		if err := p.RestoreCheckpoint(cks[p.ID()]); err != nil {
			return err
		}
		// Restore is local; fence it collectively so no processor's
		// first remote fetch can race a peer still installing its image.
		p.GlobalBarrier()

		model := make([]int64, cfg.Regions)
		for _, op := range ops[:ckptTurn] {
			if op.write {
				model[op.region] = op.value
			}
		}
		var firstErr error
		fail := func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}
		// Audit: the restored cut must equal the model at the checkpoint
		// on every processor before any re-execution muddies it.
		for r := 0; r < cfg.Regions; r++ {
			p.StartRead(hs[r])
			got := hs[r].Data.Int64(0)
			p.EndRead(hs[r])
			if want := model[r]; got != want {
				fail(fmt.Errorf("rejoin %s/%s seed %d: restored region %d = %d, model at checkpoint says %d",
					cfg.Protocol, cfg.Policy, cfg.Seed, r, got, want))
			}
		}
		p.Barrier(sp)

		// Re-execute from the checkpoint's cursor. Determinism makes the
		// replayed writes bit-identical, so the model check is exactly the
		// crashed run's check for the same turns.
		for i := ckptTurn; i < len(ops); i++ {
			op := ops[i]
			if op.proc == p.ID() {
				h := hs[op.region]
				if op.write {
					p.StartWrite(h)
					h.Data.SetInt64(0, op.value)
					p.EndWrite(h)
				} else {
					p.StartRead(h)
					got := h.Data.Int64(0)
					p.EndRead(h)
					if want := model[op.region]; got != want {
						fail(fmt.Errorf("rejoin %s/%s seed %d: replayed op %d: proc %d read region %d = %d, model says %d",
							cfg.Protocol, cfg.Policy, cfg.Seed, i, p.ID(), op.region, got, want))
					}
				}
			}
			if op.write {
				model[op.region] = op.value
			}
			p.Barrier(sp)
		}
		for r := 0; r < cfg.Regions; r++ {
			p.StartRead(hs[r])
			got := hs[r].Data.Int64(0)
			p.EndRead(hs[r])
			if want := model[r]; got != want {
				fail(fmt.Errorf("rejoin %s/%s seed %d: final state: region %d = %d, model says %d",
					cfg.Protocol, cfg.Policy, cfg.Seed, r, got, want))
			}
		}
		p.Barrier(sp)
		return firstErr
	})
	rep.Faults = cl.Metrics().Net.Faults
	return rep
}

// MigrateConfig selects one re-homing drill. MigrateEvery is the turn
// stride between MigrateHome collectives; zero picks a default that
// lands several migrations inside the schedule.
type MigrateConfig struct {
	Config
	MigrateEvery int
}

// RunMigrate executes the model-checked schedule with region re-homing
// interleaved: every MigrateEvery turns, one region's home rotates to
// the next processor by a MigrateHome collective, and the schedule
// keeps checking reads against the sequential model across the move.
// Home-restricted protocols follow the moving home — the processor
// issuing a region's writes is always its current home, which is the
// re-homing feature's whole point.
func RunMigrate(cfg MigrateConfig) Report {
	if cfg.Procs <= 1 {
		cfg.Procs = 4
	}
	if cfg.Regions <= 0 {
		cfg.Regions = 5
	}
	if cfg.Turns <= 0 {
		cfg.Turns = 40
	}
	if cfg.Policy == "" {
		cfg.Policy = "clean"
	}
	if cfg.MigrateEvery <= 0 {
		cfg.MigrateEvery = cfg.Turns / 8
		if cfg.MigrateEvery < 3 {
			cfg.MigrateEvery = 3
		}
	}
	rep := Report{
		Protocol: cfg.Protocol,
		Policy:   cfg.Policy,
		Seed:     cfg.Seed,
		Replay: fmt.Sprintf("go test ./internal/chaos -run 'TestMigrateFixedSeeds/%s/%s' (seed %d)",
			cfg.Protocol, cfg.Policy, cfg.Seed),
	}
	pol, err := PolicyByName(cfg.Policy, cfg.Seed)
	if err != nil {
		rep.Err = err
		return rep
	}
	reg := proto.NewRegistry()
	if _, ok := reg.Lookup(cfg.Protocol); !ok {
		rep.Err = fmt.Errorf("chaos: unknown protocol %q", cfg.Protocol)
		return rep
	}
	cl, err := core.NewCluster(core.Options{
		Procs:           cfg.Procs,
		Registry:        reg,
		DefaultProtocol: cfg.Protocol,
		Faults:          pol,
		SyncTimeout:     2 * time.Minute,
	})
	if err != nil {
		rep.Err = err
		return rep
	}
	defer cl.Close()

	rng := rand.New(rand.NewSource(cfg.Seed))
	ops := genSchedule(rng, cfg.Procs, cfg.Regions, cfg.Turns)
	rep.Err = cl.Run(func(p *core.Proc) error {
		sp := p.DefaultSpace()
		hs := setupRegions(p, sp, cfg.Regions)
		model := make([]int64, cfg.Regions)
		// homeOf tracks each region's current home; it evolves
		// identically on every processor because migrations are
		// schedule-positional.
		homeOf := make([]int, cfg.Regions)
		for r := range homeOf {
			homeOf[r] = r % cfg.Procs
		}
		var firstErr error
		fail := func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}
		migrations := 0
		for i, op := range ops {
			if i > 0 && i%cfg.MigrateEvery == 0 {
				rr := (i / cfg.MigrateEvery) % cfg.Regions
				next := (homeOf[rr] + 1) % cfg.Procs
				if err := p.MigrateHome(sp, hs[rr].ID, amnet.NodeID(next)); err != nil {
					return err // collective misuse, not a coherence divergence
				}
				homeOf[rr] = next
				migrations++
			}
			who := op.proc
			if op.write && homeRestricted(cfg.Protocol) {
				who = homeOf[op.region]
			}
			if who == p.ID() {
				h := hs[op.region]
				if op.write {
					p.StartWrite(h)
					h.Data.SetInt64(0, op.value)
					p.EndWrite(h)
				} else {
					p.StartRead(h)
					got := h.Data.Int64(0)
					p.EndRead(h)
					if want := model[op.region]; got != want {
						fail(fmt.Errorf("migrate %s/%s seed %d: op %d: proc %d read region %d = %d, model says %d",
							cfg.Protocol, cfg.Policy, cfg.Seed, i, p.ID(), op.region, got, want))
					}
				}
			}
			if op.write {
				model[op.region] = op.value
			}
			p.Barrier(sp)
		}
		if migrations == 0 {
			fail(fmt.Errorf("migrate %s/%s seed %d: schedule performed no migrations (stride %d, %d turns)",
				cfg.Protocol, cfg.Policy, cfg.Seed, cfg.MigrateEvery, cfg.Turns))
		}
		// The directory really moved: every processor's view of each
		// region names the tracked home.
		for r := 0; r < cfg.Regions; r++ {
			if got := int(hs[r].Home); got != homeOf[r] {
				fail(fmt.Errorf("migrate %s/%s seed %d: proc %d sees region %d homed at %d, tracking says %d",
					cfg.Protocol, cfg.Policy, cfg.Seed, p.ID(), r, got, homeOf[r]))
			}
		}
		check := func(stage string) {
			for r := 0; r < cfg.Regions; r++ {
				p.StartRead(hs[r])
				got := hs[r].Data.Int64(0)
				p.EndRead(hs[r])
				if want := model[r]; got != want {
					fail(fmt.Errorf("migrate %s/%s seed %d: %s: region %d = %d, model says %d",
						cfg.Protocol, cfg.Policy, cfg.Seed, stage, r, got, want))
				}
			}
		}
		check("after migrated schedule")
		p.Barrier(sp)
		// A write round by the post-migration homes: the moved directory
		// must accept its new home as a first-class writer.
		for r := 0; r < cfg.Regions; r++ {
			if homeOf[r] == p.ID() {
				p.StartWrite(hs[r])
				hs[r].Data.SetInt64(0, model[r]+100)
				p.EndWrite(hs[r])
			}
			model[r] += 100
		}
		p.Barrier(sp)
		check("after write round at migrated homes")
		p.Barrier(sp)
		return firstErr
	})
	rep.Faults = cl.Metrics().Net.Faults
	return rep
}
