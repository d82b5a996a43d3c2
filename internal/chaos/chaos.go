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
// The "null" protocol is deliberately not covered: it performs no
// coherence actions by contract and is only correct for unshared or
// pre-propagated data, which is exactly what the harness's sharing
// workload is designed to violate. (The harness's own "broken" test
// double — registered alongside the library — behaves the same way and
// exists to prove the harness catches incoherence.)
package chaos

import (
	"fmt"
	"math/rand"
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
	Protocol string // required: a library protocol, or "broken"
	Policy   string // named fault policy; see Policies
}

// Report is the outcome of one run. Err is nil on success; on failure
// Replay holds a command that reproduces the run.
type Report struct {
	Protocol string
	Policy   string
	Seed     int64
	Err      error
	Faults   trace.FaultCounts
	Replay   string
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

// Run executes one stress run and reports the outcome.
func Run(cfg Config) Report {
	if cfg.Procs <= 0 {
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
		Replay: fmt.Sprintf("go test ./internal/chaos -run 'TestMatrixFixedSeeds/%s/%s' (seed %d)",
			cfg.Protocol, cfg.Policy, cfg.Seed),
	}
	pol, err := PolicyByName(cfg.Policy, cfg.Seed)
	if err != nil {
		rep.Err = err
		return rep
	}
	reg := proto.NewRegistry()
	reg.MustRegister(BrokenInfo())
	defaultProto := cfg.Protocol
	var adapt *core.AdaptConfig
	if cfg.Protocol == "adaptive" {
		// The adaptive row starts on "sc" and lets the controller switch
		// protocols while the conformance schedule runs. Aggressive
		// tuning so switches land inside the fault windows (the
		// partitioned policy's windows open a few milliseconds in).
		defaultProto = "sc"
		adapt = &core.AdaptConfig{EpochBarriers: 2, Hysteresis: 2, Cooldown: 1, MinOps: 1}
	}
	if _, ok := reg.Lookup(defaultProto); !ok {
		rep.Err = fmt.Errorf("chaos: unknown protocol %q", cfg.Protocol)
		return rep
	}
	cl, err := core.NewCluster(core.Options{
		Procs:           cfg.Procs,
		Registry:        reg,
		DefaultProtocol: defaultProto,
		Faults:          pol,
		Adapt:           adapt,
		// A harness bug (or a protocol hang under faults) must fail
		// typed, not wedge the suite.
		SyncTimeout: 2 * time.Minute,
	})
	if err != nil {
		rep.Err = err
		return rep
	}
	defer cl.Close()
	rep.Err = cl.Run(worker(cfg))
	m := cl.Metrics()
	rep.Faults = m.Net.Faults
	if cfg.Protocol == "adaptive" && rep.Err == nil {
		// The row only proves something if the controller actually
		// switched protocols under the workload's pattern churn.
		var switches uint64
		for _, a := range m.Adapt {
			switches += a.Switches
		}
		if switches < 2 {
			rep.Err = fmt.Errorf("chaos adaptive/%s seed %d: controller made %d switches, want at least 2 (pattern churn did not exercise adaptation)",
				cfg.Policy, cfg.Seed, switches)
		}
	}
	return rep
}

// schedOp is one operation of the turn-based schedule; ops are
// separated by barriers, so a correct protocol must make every read
// observe the sequential model.
type schedOp struct {
	proc   int
	write  bool
	region int
	value  int64
}

// genSchedule derives the run's schedule from the seed alone, so a
// replay executes the identical operation sequence.
func genSchedule(rng *rand.Rand, procs, nRegions, nTurns int) []schedOp {
	var ops []schedOp
	val := int64(1)
	for t := 0; t < nTurns; t++ {
		op := schedOp{proc: rng.Intn(procs), region: rng.Intn(nRegions)}
		if rng.Intn(2) == 0 {
			op.write, op.value = true, val
			val++
		}
		ops = append(ops, op)
	}
	return ops
}

// homeRestricted reports protocols whose contract only lets a region's
// home processor write it. The adaptive row is restricted too: the
// controller may install staticupdate or homewrite at any epoch, so the
// whole schedule must stay legal under them.
func homeRestricted(protocol string) bool {
	return protocol == "homewrite" || protocol == "staticupdate" || protocol == "adaptive"
}

// worker builds the SPMD body for the configured protocol: the additive
// workload for pipeline, the controller-churn workload for the adaptive
// row, the model-checked schedule for everyone else.
func worker(cfg Config) func(p *core.Proc) error {
	switch cfg.Protocol {
	case "pipeline":
		return additiveWorker(cfg)
	case "adaptive":
		return adaptiveWorker(cfg)
	}
	return scheduleWorker(cfg)
}

// setupRegions allocates n regions homed round-robin, broadcasts their
// ids, maps them everywhere and registers every processor as a sharer
// (so push-based protocols know the full sharer set), finishing at a
// barrier.
func setupRegions(p *core.Proc, sp *core.Space, n int) []*core.Region {
	procs := p.Procs()
	ids := make([]core.RegionID, n)
	var mine []core.RegionID
	for r := 0; r < n; r++ {
		if r%procs == p.ID() {
			mine = append(mine, p.GMalloc(sp, 8))
		}
	}
	for root := 0; root < procs; root++ {
		cnt := 0
		for r := 0; r < n; r++ {
			if r%procs == root {
				cnt++
			}
		}
		var got []core.RegionID
		if root == p.ID() {
			got = p.BroadcastIDs(root, mine)
		} else {
			got = p.BroadcastIDs(root, make([]core.RegionID, cnt))
		}
		i := 0
		for r := 0; r < n; r++ {
			if r%procs == root {
				ids[r] = got[i]
				i++
			}
		}
	}
	hs := make([]*core.Region, n)
	for r, id := range ids {
		hs[r] = p.Map(id)
		p.StartRead(hs[r])
		p.EndRead(hs[r])
	}
	p.Barrier(sp)
	return hs
}

// scheduleWorker checks the protocol against the sequential model, then
// a lock-protected counter (mutual exclusion), then flush-to-base
// across ChangeProtocol — the full invariant set for one protocol.
func scheduleWorker(cfg Config) func(p *core.Proc) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ops := genSchedule(rng, cfg.Procs, cfg.Regions, cfg.Turns)
	if homeRestricted(cfg.Protocol) {
		for i := range ops {
			if ops[i].write {
				ops[i].proc = ops[i].region % cfg.Procs
			}
		}
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
	return func(p *core.Proc) error {
		sp := p.DefaultSpace()
		// Region cfg.Regions (one past the schedule's) is the lock
		// counter, homed at proc 0.
		hs := setupRegions(p, sp, cfg.Regions+1)
		model := make([]int64, cfg.Regions)

		// A divergence must not strand the other processors at the next
		// barrier: record the first violation, keep executing the
		// collective schedule to completion, and fail at the end. This
		// also keeps the broken test double's failure deterministic —
		// every processor reports its own first divergence.
		var firstErr error
		fail := func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}

		// Phase 1: model-checked schedule (read-your-writes across
		// EndWrite+Barrier).
		for i, op := range ops {
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
						fail(fmt.Errorf("chaos %s/%s seed %d: op %d: proc %d read region %d = %d, model says %d",
							cfg.Protocol, cfg.Policy, cfg.Seed, i, p.ID(), op.region, got, want))
					}
				}
			}
			if op.write {
				model[op.region] = op.value
			}
			p.Barrier(sp)
		}

		// Phase 2: lock-protected counter (single writer at a time, so
		// no increment may be lost).
		const incs = 6
		counter := hs[cfg.Regions]
		if lockPhase {
			for k := 0; k < incs; k++ {
				p.Lock(counter)
				p.StartWrite(counter)
				counter.Data.SetInt64(0, counter.Data.Int64(0)+1)
				p.EndWrite(counter)
				p.Unlock(counter)
			}
			p.Barrier(sp)
			p.StartRead(counter)
			got := counter.Data.Int64(0)
			p.EndRead(counter)
			if want := int64(cfg.Procs * incs); got != want {
				fail(fmt.Errorf("chaos %s/%s seed %d: lock counter = %d, want %d (lost increments)",
					cfg.Protocol, cfg.Policy, cfg.Seed, got, want))
			}
			p.Barrier(sp)
		}
		if cfg.Protocol == "racecheck" {
			if v := p.AllReduceInt64(core.OpSum, proto.RaceViolations(sp)); v != 0 {
				fail(fmt.Errorf("chaos racecheck/%s seed %d: %d violations on a properly phased schedule",
					cfg.Policy, cfg.Seed, v))
			}
		}

		// Phase 3: ChangeProtocol must flush to base — the data written
		// under cfg.Protocol is read back under another protocol, and
		// again after switching back.
		other := "sc"
		if cfg.Protocol == "sc" {
			other = "update"
		}
		check := func(stage string) {
			for r := 0; r < cfg.Regions; r++ {
				p.StartRead(hs[r])
				got := hs[r].Data.Int64(0)
				p.EndRead(hs[r])
				if want := model[r]; got != want {
					fail(fmt.Errorf("chaos %s/%s seed %d: %s: region %d = %d, model says %d",
						cfg.Protocol, cfg.Policy, cfg.Seed, stage, r, got, want))
				}
			}
		}
		if err := p.ChangeProtocol(sp, other); err != nil {
			return err // collective misuse, not a coherence divergence
		}
		check("after ChangeProtocol to " + other)
		p.Barrier(sp)
		if err := p.ChangeProtocol(sp, cfg.Protocol); err != nil {
			return err
		}
		// One more write round under the restored protocol: the home of
		// each region (a writer every protocol permits) bumps it.
		for r := 0; r < cfg.Regions; r++ {
			if r%cfg.Procs == p.ID() {
				p.StartWrite(hs[r])
				hs[r].Data.SetInt64(0, model[r]+100)
				p.EndWrite(hs[r])
			}
			model[r] += 100
		}
		p.Barrier(sp)
		check("after ChangeProtocol back to " + cfg.Protocol)
		p.Barrier(sp)
		return firstErr
	}
}

// adaptiveWorker drives the adaptive row: the cluster starts on sc with
// the online controller enabled (see Run), and the workload checks the
// sequential model while deliberately churning the access pattern so the
// controller switches protocols mid-run — first the seeded schedule
// (too sparse per epoch to trigger a switch: it validates the controller
// stays put without signal), then a read-dominated home-writer phase
// (classifies producer-consumer → staticupdate), then a lock-mediated
// phase (classifies migratory), and finally a manual ChangeProtocol on
// top of whatever the controller installed. Writes are home-only
// throughout, keeping every reachable target protocol legal; reads are
// checked only after barriers, which every adaptive protocol's contract
// covers. Run asserts afterwards that at least two switches happened.
func adaptiveWorker(cfg Config) func(p *core.Proc) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ops := genSchedule(rng, cfg.Procs, cfg.Regions, cfg.Turns)
	for i := range ops {
		if ops[i].write {
			ops[i].proc = ops[i].region % cfg.Procs
		}
	}
	return func(p *core.Proc) error {
		sp := p.DefaultSpace()
		// Region cfg.Regions is lock bait for the migratory phase; it is
		// never written, so it needs no model entry.
		hs := setupRegions(p, sp, cfg.Regions+1)
		model := make([]int64, cfg.Regions)
		var firstErr error
		fail := func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}
		checkAll := func(stage string) {
			for r := 0; r < cfg.Regions; r++ {
				p.StartRead(hs[r])
				got := hs[r].Data.Int64(0)
				p.EndRead(hs[r])
				if want := model[r]; got != want {
					fail(fmt.Errorf("chaos adaptive/%s seed %d: %s: region %d = %d, model says %d",
						cfg.Policy, cfg.Seed, stage, r, got, want))
				}
			}
		}

		// Phase 1: the seeded schedule under sc. One op per epoch-half is
		// below every classification threshold (no epoch can see a writer
		// plus two readers), so the controller must not switch here.
		for i, op := range ops {
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
						fail(fmt.Errorf("chaos adaptive/%s seed %d: op %d: proc %d read region %d = %d, model says %d",
							cfg.Policy, cfg.Seed, i, p.ID(), op.region, got, want))
					}
				}
			}
			if op.write {
				model[op.region] = op.value
			}
			p.Barrier(sp)
		}

		const churnIters = 8
		// Phase 2: producer-consumer churn. Every home rewrites its
		// regions, everyone reads them all back — read-dominated,
		// home-only, with remote read misses under sc: the controller
		// must converge on staticupdate within the phase, and the model
		// must keep holding across the switch.
		for e := 0; e < churnIters; e++ {
			for r := 0; r < cfg.Regions; r++ {
				v := int64(10_000 + 100*e + r)
				if r%cfg.Procs == p.ID() {
					p.StartWrite(hs[r])
					hs[r].Data.SetInt64(0, v)
					p.EndWrite(hs[r])
				}
				model[r] = v
			}
			p.Barrier(sp)
			checkAll(fmt.Sprintf("producer-consumer churn %d", e))
			p.Barrier(sp)
		}

		// Phase 3: migratory churn. The same home-only writes, now inside
		// a lock section on the bait region — lock traffic plus writes
		// classifies migratory, switching away from the push protocol.
		bait := hs[cfg.Regions]
		for e := 0; e < churnIters; e++ {
			p.Lock(bait)
			for r := 0; r < cfg.Regions; r++ {
				v := int64(20_000 + 100*e + r)
				if r%cfg.Procs == p.ID() {
					p.StartWrite(hs[r])
					hs[r].Data.SetInt64(0, v)
					p.EndWrite(hs[r])
				}
				model[r] = v
			}
			p.Unlock(bait)
			p.Barrier(sp)
			checkAll(fmt.Sprintf("migratory churn %d", e))
			p.Barrier(sp)
		}

		// Phase 4: a manual ChangeProtocol on top of the controller —
		// applications and the controller share the same collective, so
		// an explicit switch must flush and proceed from wherever
		// adaptation landed.
		if err := p.ChangeProtocol(sp, "sc"); err != nil {
			return err // collective misuse, not a coherence divergence
		}
		checkAll("after manual ChangeProtocol to sc")
		p.Barrier(sp)
		for r := 0; r < cfg.Regions; r++ {
			if r%cfg.Procs == p.ID() {
				p.StartWrite(hs[r])
				hs[r].Data.SetInt64(0, model[r]+100)
				p.EndWrite(hs[r])
			}
			model[r] += 100
		}
		p.Barrier(sp)
		checkAll("after home-writer round under sc")
		p.Barrier(sp)
		return firstErr
	}
}

// additiveWorker drives the pipeline protocol with its contract:
// write sections contribute addends, barriers publish the sums.
func additiveWorker(cfg Config) func(p *core.Proc) error {
	return func(p *core.Proc) error {
		sp := p.DefaultSpace()
		hs := setupRegions(p, sp, cfg.Regions)
		model := make([]float64, cfg.Regions)
		perTurn := float64(cfg.Procs * (cfg.Procs + 1) / 2)
		// As in scheduleWorker: record the first divergence and keep
		// participating in the collectives so peers aren't stranded.
		var firstErr error
		fail := func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		}
		turn := func(i int) {
			h := hs[i%cfg.Regions]
			p.StartWrite(h)
			h.Data.SetFloat64(0, h.Data.Float64(0)+float64(p.ID()+1))
			p.EndWrite(h)
			p.Barrier(sp)
			model[i%cfg.Regions] += perTurn
			p.StartRead(h)
			got := h.Data.Float64(0)
			p.EndRead(h)
			if want := model[i%cfg.Regions]; got != want {
				fail(fmt.Errorf("chaos pipeline/%s seed %d: turn %d: region %d = %v, model says %v (lost or doubled addends)",
					cfg.Policy, cfg.Seed, i, i%cfg.Regions, got, want))
			}
			p.Barrier(sp)
		}
		for i := 0; i < cfg.Turns; i++ {
			turn(i)
		}
		// Flush-to-base: the accumulated sums must survive a switch to
		// sc and the switch back, after which accumulation continues.
		checkAll := func(stage string) {
			for r := 0; r < cfg.Regions; r++ {
				p.StartRead(hs[r])
				got := hs[r].Data.Float64(0)
				p.EndRead(hs[r])
				if want := model[r]; got != want {
					fail(fmt.Errorf("chaos pipeline/%s seed %d: %s: region %d = %v, model says %v",
						cfg.Policy, cfg.Seed, stage, r, got, want))
				}
			}
		}
		if err := p.ChangeProtocol(sp, "sc"); err != nil {
			return err // collective misuse, not a coherence divergence
		}
		checkAll("after ChangeProtocol to sc")
		p.Barrier(sp)
		if err := p.ChangeProtocol(sp, "pipeline"); err != nil {
			return err
		}
		turn(0)
		return firstErr
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
