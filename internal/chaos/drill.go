package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/faultnet"
	"github.com/acedsm/ace/proto"
)

// runner describes how one kind of drill starts.
type runner struct {
	kind     string // error prefix
	test     string // the fixed-seed test the replay line names
	regions  int    // default for Config.Regions
	turns    int    // default for Config.Turns
	minProcs int
	// killable drills always run on a fault layer, since Kill lives
	// there; under "clean" it injects nothing.
	killable bool
}

// drill is one run's fixed inputs, shared by every processor.
type drill struct {
	cfg  Config
	name string // "<kind> <protocol>/<policy> seed <n>", the error prefix
	base string // the protocol the cluster starts on ("sc" for adaptive)
	rng  *rand.Rand
	ops  []schedOp
	cl   *core.Cluster
	rep  Report
}

// start is the one cluster bring-up every runner shares. It fills
// cfg's zero fields (4 processors, the runner's region and turn
// counts, the clean policy), writes the report's replay line, derives
// the seeded schedule, and starts the cluster on the policy's fault
// layer. On failure d.cl is nil and d.rep.Err says why.
func (rn runner) start(cfg Config) *drill {
	if cfg.Procs <= 0 {
		cfg.Procs = 4
	}
	if cfg.Regions <= 0 {
		cfg.Regions = rn.regions
	}
	if cfg.Turns <= 0 {
		cfg.Turns = rn.turns
	}
	if cfg.Policy == "" {
		cfg.Policy = "clean"
	}
	d := &drill{
		cfg:  cfg,
		name: fmt.Sprintf("%s %s/%s seed %d", rn.kind, cfg.Protocol, cfg.Policy, cfg.Seed),
		base: cfg.Protocol,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		rep: Report{
			Protocol: cfg.Protocol,
			Policy:   cfg.Policy,
			Seed:     cfg.Seed,
			Replay: fmt.Sprintf("go test ./internal/chaos -run '%s/%s/%s' (seed %d)",
				rn.test, cfg.Protocol, cfg.Policy, cfg.Seed),
		},
	}
	d.ops = genSchedule(d.rng, cfg.Procs, cfg.Regions, cfg.Turns)
	if cfg.Procs < rn.minProcs {
		d.rep.Err = fmt.Errorf("%s: the %s drill needs at least %d processors, got %d",
			d.name, rn.kind, rn.minProcs, cfg.Procs)
		return d
	}
	pol, err := PolicyByName(cfg.Policy, cfg.Seed)
	if err != nil {
		d.rep.Err = err
		return d
	}
	if pol == nil && rn.killable {
		pol = &faultnet.Policy{Seed: cfg.Seed}
	}
	adapt := cfg.Protocol == "adaptive"
	if adapt {
		// The adaptive row starts on "sc" and lets the controller switch
		// protocols while the drill runs.
		d.base = "sc"
	}
	reg := proto.NewRegistry()
	reg.MustRegister(BrokenInfo())
	if _, ok := reg.Lookup(d.base); !ok {
		d.rep.Err = fmt.Errorf("chaos: unknown protocol %q", cfg.Protocol)
		return d
	}
	d.cl, err = core.NewCluster(core.Options{
		Procs:           cfg.Procs,
		Registry:        reg,
		DefaultProtocol: d.base,
		Faults:          pol,
		Adapt:           adapt,
		// A harness bug (or a protocol hang under faults) must fail
		// typed, not wedge the suite.
		SyncTimeout: 2 * time.Minute,
	})
	if err != nil {
		d.rep.Err = err
	}
	return d
}

// finish completes the report of a run that ended with err.
func (d *drill) finish(err error) Report {
	d.rep.Err = err
	m := d.cl.Metrics()
	d.rep.Faults = m.Net.Faults
	if len(m.Adapt) > 0 {
		d.rep.Adapt = m.Adapt[0]
	}
	return d.rep
}

// homeRestricted reports whether turns running under active must send
// their writes to the region's home: homewrite and staticupdate only
// let the home write, and with the adaptive controller on either may be
// installed at any epoch.
func (d *drill) homeRestricted(active string) bool {
	return active == "homewrite" || active == "staticupdate" || d.cfg.Protocol == "adaptive"
}

// schedOp is one operation of the turn-based schedule; ops are
// separated by barriers, so a correct protocol must make every read
// observe the sequential model. An additive op is pipeline's: every
// processor takes part, a write adds the processor's ID+1, and value
// is the turn's sum of addends.
type schedOp struct {
	proc   int
	write  bool
	add    bool
	region int
	value  float64
}

// genSchedule derives the run's schedule from the seed alone, so a
// replay executes the identical operation sequence. Values are small
// integers, exact as float64, so the additive pipeline row shares the
// model check.
func genSchedule(rng *rand.Rand, procs, nRegions, nTurns int) []schedOp {
	ops := make([]schedOp, nTurns)
	val := 1.0
	for t := range ops {
		op := schedOp{proc: rng.Intn(procs), region: rng.Intn(nRegions)}
		if rng.Intn(2) == 0 {
			op.write, op.value = true, val
			val++
		}
		ops[t] = op
	}
	return ops
}

// additiveSchedule is pipeline's schedule: in turn t every processor
// adds to region t%nRegions, and after the barrier every processor
// reads the sum back.
func additiveSchedule(procs, nRegions, nTurns int) []schedOp {
	sum := float64(procs * (procs + 1) / 2)
	ops := make([]schedOp, 0, 2*nTurns)
	for t := 0; t < nTurns; t++ {
		r := t % nRegions
		ops = append(ops,
			schedOp{write: true, add: true, region: r, value: sum},
			schedOp{add: true, region: r})
	}
	return ops
}

// homeOf is the home of a drill's region r on procs processors: the
// processor setupRegions allocates it on, round-robin.
func homeOf(r, procs int) int { return r % procs }

// setupRegions allocates n regions homed round-robin, broadcasts their
// ids, maps them everywhere and registers every processor as a sharer
// (so push-based protocols know the full sharer set), finishing at a
// barrier.
func setupRegions(p *core.Proc, sp *core.Space, n int) []*core.Region {
	procs := p.Procs()
	ids := make([]core.RegionID, n)
	var mine []core.RegionID
	for r := 0; r < n; r++ {
		if homeOf(r, procs) == p.ID() {
			mine = append(mine, p.GMalloc(sp, 8))
		}
	}
	for root := 0; root < procs; root++ {
		cnt := 0
		for r := 0; r < n; r++ {
			if homeOf(r, procs) == root {
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
			if homeOf(r, procs) == root {
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

// walker is one processor's side of a drill: its region handles, its
// copy of the sequential model (identical on every processor by
// construction), and the first divergence it saw.
//
// A divergence must not strand the other processors at the next
// barrier: the walker records the first one, keeps executing the
// collective schedule to completion, and the worker fails at the end.
// This also keeps the broken test double's failure deterministic —
// every processor reports its own first divergence.
type walker struct {
	*drill
	p     *core.Proc
	sp    *core.Space
	hs    []*core.Region
	model []float64
	err   error
}

// walker starts p's side of the drill over the handles hs; the model
// covers the first cfg.Regions of them.
func (d *drill) walker(p *core.Proc, hs []*core.Region) *walker {
	return &walker{
		drill: d,
		p:     p,
		sp:    p.DefaultSpace(),
		hs:    hs,
		model: make([]float64, d.cfg.Regions),
	}
}

func (w *walker) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// turns executes schedule turns [from, to). Each turn first calls hook
// (if any), then its processor (every processor, for an additive op)
// writes or reads against the model, then everyone meets at a barrier.
// With restricted set a write goes to its region's home instead of the
// scheduled processor. Only a hook error stops the walk.
func (w *walker) turns(from, to int, restricted bool, hook func(i int) error) error {
	for i := from; i < to; i++ {
		if hook != nil {
			if err := hook(i); err != nil {
				return err
			}
		}
		op := w.ops[i]
		who := op.proc
		if op.write && restricted {
			who = homeOf(op.region, w.cfg.Procs)
		}
		if who == w.p.ID() || op.add {
			if op.write {
				h := w.hs[op.region]
				w.p.StartWrite(h)
				v := op.value
				if op.add {
					v = h.Data.Float64(0) + float64(w.p.ID()+1)
				}
				h.Data.SetFloat64(0, v)
				w.p.EndWrite(h)
			} else {
				w.read(op.region, fmt.Sprintf("op %d", i))
			}
		}
		switch {
		case op.add && op.write:
			w.model[op.region] += op.value
		case op.write:
			w.model[op.region] = op.value
		}
		w.p.Barrier(w.sp)
	}
	return nil
}

// read reads region r and records a divergence from the model.
func (w *walker) read(r int, at string) {
	h := w.hs[r]
	w.p.StartRead(h)
	got := h.Data.Float64(0)
	w.p.EndRead(h)
	if want := w.model[r]; got != want {
		w.fail(fmt.Errorf("%s: %s: proc %d read region %d = %v, model says %v",
			w.name, at, w.p.ID(), r, got, want))
	}
}

// check reads every region against the model.
func (w *walker) check(stage string) {
	for r := range w.model {
		w.read(r, stage)
	}
}

// homeRound has each region's home — a writer every protocol permits —
// bump it by 100, then checks every region. The bump is a
// read-modify-write, so under pipeline (where a home write section
// starts from zero and adds) it bumps the same way. With lock set, the
// writes run inside a lock section on it.
func (w *walker) homeRound(stage string, lock *core.Region) {
	if lock != nil {
		w.p.Lock(lock)
	}
	for r := range w.model {
		if homeOf(r, w.cfg.Procs) == w.p.ID() {
			h := w.hs[r]
			w.p.StartWrite(h)
			h.Data.SetFloat64(0, h.Data.Float64(0)+100)
			w.p.EndWrite(h)
		}
		w.model[r] += 100
	}
	if lock != nil {
		w.p.Unlock(lock)
	}
	w.p.Barrier(w.sp)
	w.check(stage)
	w.p.Barrier(w.sp)
}
