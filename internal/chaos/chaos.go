// Package chaos is a seeded protocol-conformance stress harness: it
// runs every library protocol through randomized region workloads on a
// fault-injecting transport (internal/faultnet) and checks the
// coherence invariants the runtime promises a correctly synchronized
// program — read-your-writes after EndWrite+Barrier (against a
// sequential model), mutual exclusion for lock-protected counters, and
// flush-to-base across ChangeProtocol. Every run is identified by
// (protocol, policy, seed); a failing report carries a replay command
// that reproduces the same failure deterministically.
//
// All runners share one drill (drill.go): one cluster start, one turn
// executor, one model check and one home-writer round. Run is the
// conformance drill proper; RunRejoin, RunMigrate and RunSpaceChurn
// reuse its start and, where they run the schedule, its executor.
//
// The "null" protocol is deliberately not covered: it performs no
// coherence actions by contract and is only correct for unshared or
// pre-propagated data, which is exactly what the harness's sharing
// workload is designed to violate. (The harness's own "broken" test
// double — registered alongside the library — behaves the same way and
// exists to prove the harness catches incoherence.)
package chaos

import (
	"fmt"
	"time"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/faultnet"
	"github.com/acedsm/ace/internal/trace"
	"github.com/acedsm/ace/proto"
)

// Config selects one stress run. Zero fields default: 4 processors, 5
// regions, 40 turns, the "clean" policy.
type Config struct {
	Seed     int64
	Procs    int
	Regions  int
	Turns    int
	Protocol string // required: a library protocol, "adaptive", or "broken"
	Policy   string // named fault policy; see Policies
}

// Report is the outcome of one run. Err is nil on success; Replay
// holds a command that reproduces the run.
type Report struct {
	Protocol string
	Policy   string
	Seed     int64
	Err      error
	Faults   trace.FaultCounts
	// Adapt is the adaptive controller's final state for the drill's
	// space (the "adaptive" row only).
	Adapt  trace.AdaptStats
	Replay string
}

// Protocols returns the library protocols the harness covers: every
// registered protocol except "null" (see the package comment), plus the
// pseudo-protocol "adaptive" — a cluster started on "sc" with the online
// protocol controller enabled, so the conformance invariants are checked
// while the controller switches protocols mid-run.
func Protocols() []string {
	return []string{
		"sc", "migratory", "update", "atomic", "writethrough",
		"homewrite", "staticupdate", "pipeline", "racecheck", "adaptive",
	}
}

// Policies returns the named fault policies, mildest first.
func Policies() []string {
	return []string{"clean", "jittery", "lossy", "partitioned", "slow"}
}

// PolicyByName builds the named fault policy for the given seed. The
// "clean" policy is nil: no fault layer at all.
func PolicyByName(name string, seed int64) (*faultnet.Policy, error) {
	switch name {
	case "clean":
		return nil, nil
	case "jittery":
		return &faultnet.Policy{
			Seed:   seed,
			Delay:  100 * time.Microsecond,
			Jitter: 400 * time.Microsecond,
		}, nil
	case "lossy":
		return &faultnet.Policy{
			Seed:        seed,
			Delay:       50 * time.Microsecond,
			DropProb:    0.15,
			ReorderProb: 0.15,
		}, nil
	case "partitioned":
		// Two successive bidirectional windows on the 0↔1 pair (the
		// pair in a Partition is unordered).
		return &faultnet.Policy{
			Seed: seed,
			Partitions: []faultnet.Partition{
				{A: 0, B: 1, After: 2 * time.Millisecond, For: 3 * time.Millisecond},
				{A: 0, B: 1, After: 9 * time.Millisecond, For: 3 * time.Millisecond},
			},
		}, nil
	case "slow":
		return &faultnet.Policy{
			Seed:      seed,
			SlowNode:  1,
			SlowDelay: 200 * time.Microsecond,
		}, nil
	}
	return nil, fmt.Errorf("chaos: unknown policy %q (have %v)", name, Policies())
}

// BrokenInfo is the harness's deliberately broken protocol: it takes no
// coherence actions at all while claiming to manage shared data, so the
// conformance workload must catch it on the first read of remotely
// written data — at the same schedule position for a given seed,
// whatever the fault policy does to timing.
func BrokenInfo() core.Info {
	return core.Info{
		Name: "broken",
		New:  func() core.Protocol { return &brokenProto{} },
	}
}

type brokenProto struct{ core.Base }

func (*brokenProto) Name() string { return "broken" }

var matrixRun = runner{kind: "chaos", test: "TestMatrixFixedSeeds", regions: 5, turns: 40, minProcs: 1}

// Run executes one conformance drill and reports the outcome. The first
// half of the seeded schedule runs under cfg.Protocol, followed by the
// protocol's own phase (the lock-protected counter, racecheck's
// violation count, the adaptive row's controller churn). Then the
// ChangeProtocol phase: the space switches to another protocol, every
// region is checked against the model, the second half runs under that
// protocol, the space switches back, and a home-writer round is checked
// once more. pipeline, whose writes add rather than overwrite, runs an
// additive schedule through the same phases.
func Run(cfg Config) Report {
	d := matrixRun.start(cfg)
	if d.cl == nil {
		return d.rep
	}
	defer d.cl.Close()
	rep := d.finish(d.cl.Run(d.worker()))
	if d.cfg.Protocol == "adaptive" && rep.Err == nil && rep.Adapt.Switches < 2 {
		// The row only proves something if the controller actually
		// switched protocols under the workload's pattern churn.
		rep.Err = fmt.Errorf("%s: controller made %d switches, want at least 2 (pattern churn did not exercise adaptation)",
			d.name, rep.Adapt.Switches)
	}
	return rep
}

// worker builds Run's SPMD body.
func (d *drill) worker() func(p *core.Proc) error {
	cfg := d.cfg
	// The second half runs under a protocol with unrestricted writers,
	// so the schedule stays legal as generated.
	other := "sc"
	if cfg.Protocol == "sc" {
		other = "update"
	}
	// The lock phase (read-modify-write under mutual exclusion, no
	// barriers) is only an advertised idiom for protocols whose
	// coherence points cover lock transfer: sc (invalidation completes
	// inside the write section), migratory (data moves with ownership)
	// and atomic (home-serialized RMW). writethrough and the update
	// family are phase-structured by contract — stores are split-phase
	// and cached copies self-invalidate at *barriers*, so lock handoff
	// between barriers guarantees nothing; the home-restricted
	// protocols forbid remote writers outright; racecheck would
	// correctly flag the phase as unsynchronized writes.
	lockPhase := map[string]bool{"sc": true, "migratory": true, "atomic": true}[cfg.Protocol]
	end := len(d.ops)
	if cfg.Protocol == "pipeline" {
		// One more additive turn than the phases use: it runs after the
		// switch back, where accumulation from every processor resumes.
		d.ops = additiveSchedule(cfg.Procs, cfg.Regions, cfg.Turns+1)
		end = len(d.ops) - 2
	}
	half := end / 2
	return func(p *core.Proc) error {
		sp := p.DefaultSpace()
		// Region cfg.Regions (one past the schedule's) is the lock
		// counter, or the adaptive row's lock bait; it has no model entry.
		w := d.walker(p, setupRegions(p, sp, cfg.Regions+1))
		spare := w.hs[cfg.Regions]

		if err := w.turns(0, half, d.homeRestricted(cfg.Protocol), nil); err != nil {
			return err
		}
		if lockPhase {
			w.lockCounter(spare)
		}
		switch cfg.Protocol {
		case "racecheck":
			// Counted before the switch: ChangeProtocol installs a fresh
			// instance.
			if v := p.AllReduceInt64(core.OpSum, proto.RaceViolations(sp)); v != 0 {
				w.fail(fmt.Errorf("%s: %d violations on a properly phased schedule", d.name, v))
			}
		case "adaptive":
			w.churn(spare)
		}

		// The ChangeProtocol phase: flush to base, then prove it.
		if err := p.ChangeProtocol(sp, other); err != nil {
			return err // collective misuse, not a coherence divergence
		}
		w.check("after ChangeProtocol to " + other)
		p.Barrier(sp)
		if err := w.turns(half, end, d.homeRestricted(other), nil); err != nil {
			return err
		}
		if err := p.ChangeProtocol(sp, d.base); err != nil {
			return err
		}
		w.homeRound("after ChangeProtocol back to "+d.base, nil)
		if err := w.turns(end, len(d.ops), d.homeRestricted(d.base), nil); err != nil {
			return err
		}
		return w.err
	}
}

// lockCounter has every processor increment the counter region under
// its lock, then checks that no increment was lost.
func (w *walker) lockCounter(counter *core.Region) {
	const incs = 6
	p := w.p
	for k := 0; k < incs; k++ {
		p.Lock(counter)
		p.StartWrite(counter)
		counter.Data.SetInt64(0, counter.Data.Int64(0)+1)
		p.EndWrite(counter)
		p.Unlock(counter)
	}
	p.Barrier(w.sp)
	p.StartRead(counter)
	got := counter.Data.Int64(0)
	p.EndRead(counter)
	if want := int64(w.cfg.Procs * incs); got != want {
		w.fail(fmt.Errorf("%s: lock counter = %d, want %d (lost increments)", w.name, got, want))
	}
	p.Barrier(w.sp)
}

// churn is the adaptive row's phase: it churns the access pattern so
// the controller switches protocols while the model keeps holding.
// The seeded schedule before it is too sparse per epoch to trigger a
// switch (no epoch sees a writer plus two readers). First a
// read-dominated home-writer phase, which must land on staticupdate;
// then the same writes inside a lock section on bait, whose lock
// traffic classifies migratory. Writes stay home-only throughout, which
// keeps every protocol the controller can reach legal.
func (w *walker) churn(bait *core.Region) {
	const iters = 8
	for e := 0; e < iters; e++ {
		w.homeRound(fmt.Sprintf("producer-consumer churn %d", e), nil)
	}
	if got := w.sp.ProtoName; got != "staticupdate" {
		w.fail(fmt.Errorf("%s: controller landed on %q after the producer-consumer churn, want staticupdate",
			w.name, got))
	}
	for e := 0; e < iters; e++ {
		w.homeRound(fmt.Sprintf("migratory churn %d", e), bait)
	}
}

// FormatReport renders a failing report with its replay line.
func FormatReport(rep Report) string {
	if rep.Err == nil {
		return fmt.Sprintf("chaos %s/%s seed %d: ok (%d faults injected)",
			rep.Protocol, rep.Policy, rep.Seed, rep.Faults.Total())
	}
	return fmt.Sprintf("chaos %s/%s seed %d: FAIL\n  %v\n  replay: %s",
		rep.Protocol, rep.Policy, rep.Seed, rep.Err, rep.Replay)
}
