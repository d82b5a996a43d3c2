package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/acedsm/ace/internal/amnet"
	"github.com/acedsm/ace/internal/trace"
)

// The access-pattern labels the adaptive controller classifies spaces
// into. Protocols advertise the pattern they serve through
// Info.Adapt.Pattern; the controller switches a space to the protocol
// registered for its observed pattern.
const (
	PatternGeneral          = "general"
	PatternMigratory        = "migratory"
	PatternSingleWriter     = "single-writer"
	PatternProducerConsumer = "producer-consumer"
	PatternHomeWrite        = "home-write"
)

// probeEpochs is the length of a switch's probation window: the number
// of post-cooldown epochs whose mean duration prices the freshly
// installed protocol against the pre-switch per-epoch baseline.
const probeEpochs = 2

// The controller's monitoring collective is an extra cluster-wide
// synchronization round every epoch — real money on a converged space
// that will never switch again. After stableEpochs consecutive epochs
// that gave the controller nothing to do, the epoch length doubles, up
// to maxEpochStretch times the configured EpochBarriers; any signal
// snaps it back. Both windows of a switch measurement (pre-switch
// baseline, post-switch probe) run at the configured length, so their
// per-epoch costs stay comparable.
const (
	stableEpochs    = 3
	maxEpochStretch = 8
)

// AdaptHints is a protocol's declaration to the adaptive controller, part
// of its registry Info. The zero value opts the protocol out entirely:
// the controller neither installs it nor switches a space away from it.
type AdaptHints struct {
	// Adaptive opts the protocol into online adaptation, in both
	// directions: the controller may install it, and a space currently
	// running it may be switched away. Only protocols whose barrier
	// globally synchronizes all processors may declare this — the
	// controller runs collectives at barrier points and relies on every
	// processor reaching them in lockstep.
	Adaptive bool
	// Pattern names the access pattern the protocol serves best (one of
	// the Pattern* constants). The controller installs the protocol when
	// a space's observed pattern matches. Empty means the protocol is a
	// legal switch source but never a target.
	Pattern string
	// HomeWritesOnly marks protocols that reject write sections on
	// regions homed elsewhere (staticupdate, homewrite panic on them).
	// The controller installs such a protocol only while no processor
	// has ever opened a remote write section in the run — the strongest
	// evidence available that the application honors the restriction.
	HomeWritesOnly bool
}

// AdaptConfig enables and tunes the online protocol controller
// (Options.Adapt). The controller observes each adaptable space's access
// pattern through the trace counters and, at barrier points, switches
// the space to the registered protocol matching the pattern. All
// decisions are made from cluster-wide aggregates reduced with the
// runtime's collectives, so every processor takes the same decision at
// the same barrier and the underlying ChangeProtocol stays collective.
type AdaptConfig struct {
	// EpochBarriers is the number of barriers on a space forming one
	// observation epoch; the controller evaluates once per epoch.
	// Epochs that give the controller nothing to do stretch this
	// geometrically (up to 8×) so a converged space stops paying the
	// per-epoch collective; any signal snaps back. Default 4.
	EpochBarriers int
	// Hysteresis is the number of consecutive epochs a space's observed
	// pattern must point at the same non-installed protocol before the
	// controller switches. Default 3.
	Hysteresis int
	// Cooldown is the number of epochs after a switch during which the
	// controller only observes, letting the new protocol warm up (fast-
	// path bits republish lazily, sharer lists rebuild). Default 2;
	// negative means no cooldown.
	Cooldown int
	// MinOps is the minimum cluster-wide bracket count (reads + writes)
	// per epoch for the epoch to carry signal; quieter epochs decay the
	// hysteresis streak instead of feeding it. Default 64.
	MinOps uint64
	// RollbackMargin is the slack factor a switch is granted before the
	// controller reverses it: the first few epochs after the cooldown
	// are the probation window, and if their mean cost per barrier
	// (cluster-wide processor-nanoseconds, quiet epochs included)
	// exceeds the incumbent's recent-epoch baseline times this factor,
	// the controller switches back and stops targeting that pattern on
	// the space for the rest of the run. Default 1.25; negative disables
	// rollback.
	RollbackMargin float64

	// MigrateFactor enables traffic-driven region re-homing: when one
	// processor's share of a space's home-bound protocol traffic in an
	// epoch exceeds this factor times the per-processor mean, the
	// controller migrates that home's hottest region to the least loaded
	// processor (MigrateHome). Zero (the default) disables re-homing
	// entirely — the traffic counters are not even maintained.
	MigrateFactor float64
	// MinMigrateMsgs is the minimum cluster-wide home-bound message
	// count per epoch before the re-homing trigger fires; quieter epochs
	// carry no placement signal. Default 64.
	MinMigrateMsgs uint64
}

func (c AdaptConfig) withDefaults() AdaptConfig {
	if c.EpochBarriers <= 0 {
		c.EpochBarriers = 4
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 3
	}
	if c.Cooldown == 0 {
		c.Cooldown = 2
	} else if c.Cooldown < 0 {
		c.Cooldown = 0
	}
	if c.MinOps == 0 {
		c.MinOps = 64
	}
	if c.RollbackMargin == 0 {
		c.RollbackMargin = 1.25
	} else if c.RollbackMargin < 0 {
		c.RollbackMargin = 0
	}
	if c.MigrateFactor < 0 {
		c.MigrateFactor = 0
	}
	if c.MinMigrateMsgs == 0 {
		c.MinMigrateMsgs = 64
	}
	return c
}

// adaptTargetTable maps each advertised pattern to the protocol
// registered for it. Built once at cluster creation from the registry's
// sorted name list, so every processor resolves patterns identically;
// protocols registered after NewCluster are not considered.
func adaptTargetTable(reg *Registry) map[string]string {
	t := make(map[string]string)
	for _, name := range reg.Names() {
		info, _ := reg.Lookup(name)
		h := info.Adapt
		if !h.Adaptive || h.Pattern == "" {
			continue
		}
		if _, dup := t[h.Pattern]; !dup {
			t[h.Pattern] = name
		}
	}
	return t
}

// adaptState is one space's controller state on one processor. It is
// touched only by the application thread (at barrier points), except for
// pub, the stats snapshot Proc.Snapshot reads concurrently. Every field
// that feeds a decision is derived from cluster-wide aggregates, so the
// states on all processors evolve in lockstep.
type adaptState struct {
	prev     trace.SpaceMetrics // counter snapshot at the last epoch boundary
	barriers int                // barriers since the last epoch boundary
	epoch    uint64
	pattern  string // most recent classification
	target   string // protocol the current mismatch streak points at
	streak   int    // consecutive epochs pointing at target
	cooldown int    // epochs left before evaluation resumes
	switches uint64
	lastSw   uint64

	lastTick time.Time // this processor's clock at the last epoch boundary

	// A switch is measured on both sides. recent is a ring of the
	// incumbent protocol's last few epochs, each priced per barrier
	// (cluster-wide processor-nanoseconds over the epoch's barrier
	// count, so cadence-stretched epochs weigh the same as base ones);
	// its mean at switch time becomes baseCost, and baseProto holds the
	// protocol to restore. Then the new protocol is on probation: after
	// the cooldown, probeEpochs epochs are priced the same way — loud or
	// quiet, wall time is wall time in a bulk-synchronous program — and
	// a mean above baseCost × RollbackMargin restores baseProto.
	// Patterns whose switch regressed land in cooled and are never
	// targeted on this space again.
	recent        [probeEpochs * 2]int64
	recentN       int
	baseProto     string
	basePattern   string
	baseCost      float64
	probeNanos    int64
	probeBarriers int64
	probeCount    int
	cooled        map[string]bool
	rollbacks     uint64
	migrations    uint64

	// Monitoring-cadence backoff (see stableEpochs): stable counts
	// consecutive do-nothing epochs, epochLen is the current barriers-
	// per-epoch (0 means the configured EpochBarriers).
	stable   int
	epochLen int

	pub atomic.Pointer[trace.AdaptStats]
}

// calm records a do-nothing epoch: after stableEpochs in a row the
// monitoring cadence halves (the epoch length doubles, capped at
// maxEpochStretch×), so a converged space stops paying the per-epoch
// collective.
func (st *adaptState) calm(cfg *AdaptConfig) {
	st.stable++
	if st.stable < stableEpochs {
		return
	}
	st.stable = 0
	cur := st.epochLen
	if cur <= 0 {
		cur = cfg.EpochBarriers
	}
	if next := cur * 2; next <= cfg.EpochBarriers*maxEpochStretch {
		st.epochLen = next
	}
}

// wake snaps the cadence back to the configured epoch length: the epoch
// carried signal and the controller needs full resolution again.
func (st *adaptState) wake() {
	st.stable = 0
	st.epochLen = 0
}

// adaptState returns sp's controller state, creating it on first use.
// The baseline snapshot is taken at creation — the first barrier — so
// the setup phase (allocation, data distribution) does not bias the
// first epoch's classification.
func (sp *Space) adaptState() *adaptState {
	if st := sp.adapt.Load(); st != nil {
		return st
	}
	st := &adaptState{lastTick: time.Now()}
	if cur, ok := sp.proc.rec.SpaceSnapshot(sp.ID); ok {
		st.prev = cur
	}
	sp.adapt.Store(st)
	return st
}

func (st *adaptState) publish(sp *Space) {
	s := trace.AdaptStats{
		Space:           sp.ID,
		Protocol:        sp.ProtoName,
		Pattern:         st.pattern,
		Epochs:          st.epoch,
		Switches:        st.switches,
		Rollbacks:       st.rollbacks,
		Migrations:      st.migrations,
		LastSwitchEpoch: st.lastSw,
	}
	st.pub.Store(&s)
}

// adaptTick runs the controller for sp at a barrier point. Called by
// Proc.Barrier (application thread, engine lock released) when
// Options.Adapt is set.
//
// Collective discipline: the tick is gated on the installed protocol's
// Adaptive hint, and adaptive protocols have globally synchronizing
// barriers — so when one processor reaches an epoch boundary, all do,
// and the AllReduce sequence below lines up across processors. Every
// decision input is a cluster-wide aggregate, making the decision — and
// therefore the ChangeProtocol call — identical everywhere without any
// extra coordination round.
func (p *Proc) adaptTick(sp *Space) {
	cfg := p.cl.adapt
	info, ok := p.cl.reg.Lookup(sp.ProtoName)
	if !ok || !info.Adapt.Adaptive {
		return
	}
	st := sp.adaptState()
	st.barriers++
	epochLen := st.epochLen
	if epochLen <= 0 {
		epochLen = cfg.EpochBarriers
	}
	if st.barriers < epochLen {
		return
	}
	st.barriers = 0
	st.epoch++

	cur, ok := p.rec.SpaceSnapshot(sp.ID)
	if !ok {
		return
	}
	// The epoch's deltas of the counts the controller reads. The
	// counters never reset, so the plain miss difference is exact.
	ops := cur.Ops.Sub(st.prev.Ops)
	readMisses := cur.RemoteReadMisses - st.prev.RemoteReadMisses
	st.prev = cur
	now := time.Now()
	epochNanos := now.Sub(st.lastTick).Nanoseconds()
	st.lastTick = now

	// The cluster-wide feature vector for this epoch, combined in a
	// single collective round (the tick runs at barrier frequency, so
	// its cost is paid on the application's critical path). Per-processor
	// deltas differ; the aggregates — and everything derived from them —
	// are identical on every processor.
	var wf, rf int64
	if ops[trace.OpStartWrite] > 0 {
		wf = 1
	}
	if ops[trace.OpStartRead] > 0 {
		rf = 1
	}
	feats := []int64{
		int64(ops[trace.OpStartRead]),
		int64(ops[trace.OpStartWrite]),
		int64(ops[trace.OpLock]),
		int64(readMisses),
		wf,
		rf,
		// Cumulative on purpose: home-writes-only targets are eligible
		// only while no processor has ever opened a remote write section
		// on the space. The counter cannot miss one — a region's first
		// write bracket after creation or a protocol change always takes
		// the slow path (fast bits start withdrawn), which is where
		// misses are counted.
		int64(cur.RemoteWriteMisses),
		// Processor-nanoseconds spent in the epoch; with the op counts
		// it prices the installed protocol, so a switch can be judged
		// against its pre-switch baseline (and reversed).
		epochNanos,
	}
	if p.cl.migrate {
		// Per-home traffic vector, one slot per processor: each
		// contributes its own epoch delta in its own slot, so the reduced
		// vector — like every other decision input — is identical
		// everywhere.
		sp.eng.Lock()
		my := int64(sp.homeIn)
		sp.homeIn = 0
		sp.eng.Unlock()
		loads := make([]int64, p.cl.Procs())
		loads[p.id] = my
		feats = append(feats, loads...)
	}
	agg := p.AllReduceInt64s(OpSum, feats)
	reads, writes, locks := agg[0], agg[1], agg[2]
	remoteReads, nWriters, nReaders := agg[3], agg[4], agg[5]
	remoteWritesEver, nanos := agg[6], agg[7]

	if st.cooldown > 0 {
		st.cooldown--
		st.streak = 0
		st.wake()
		st.publish(sp)
		return
	}

	// Probation: the first probeEpochs epochs after the cooldown price
	// the freshly installed protocol — per barrier, and with quiet
	// epochs included, because barriers delimit the program's work units
	// and a protocol that stretches them costs wall time whether or not
	// the brackets were busy. A mean above the pre-switch baseline (with
	// margin) means the classifier was wrong about this space — switch
	// back and stop chasing the pattern that misled it. Like the
	// decision aggregates, cost is cluster-wide, so every processor
	// reverses (or confirms) in the same collective round.
	if st.baseProto != "" && cfg.RollbackMargin > 0 {
		st.wake()
		st.probeNanos += nanos
		st.probeBarriers += int64(epochLen)
		st.probeCount++
		if st.probeCount < probeEpochs {
			st.publish(sp)
			return
		}
		cost := float64(st.probeNanos) / float64(st.probeBarriers)
		if cost > st.baseCost*cfg.RollbackMargin {
			restore := st.baseProto
			if st.cooled == nil {
				st.cooled = make(map[string]bool)
			}
			st.cooled[st.basePattern] = true
			st.baseProto = ""
			st.rollbacks++
			st.switches++
			st.lastSw = st.epoch
			st.cooldown = cfg.Cooldown
			st.streak = 0
			st.target = ""
			if err := p.ChangeProtocol(sp, restore); err != nil {
				panic(fmt.Sprintf("core: proc %d: adaptive rollback of space %d to %q failed: %v",
					p.id, sp.ID, restore, err))
			}
			if cur, ok := p.rec.SpaceSnapshot(sp.ID); ok {
				st.prev = cur
			}
			st.lastTick = time.Now()
			st.publish(sp)
			return
		}
		st.baseProto = "" // probation passed; the switch stands
	}

	// Placement: with re-homing enabled, a sufficiently skewed per-home
	// traffic vector triggers a MigrateHome before (and instead of) this
	// epoch's protocol evaluation. Runs only outside cooldown and
	// probation — both gates above are lockstep decisions, so every
	// processor reaches (or skips) the migration collective together.
	if p.cl.migrate && p.adaptMigrate(sp, st, agg[8:], cfg) {
		st.streak = 0
		st.target = ""
		st.wake()
		// Re-baseline so the migration's flush traffic is not read as
		// application signal next epoch.
		if cur, ok := p.rec.SpaceSnapshot(sp.ID); ok {
			st.prev = cur
		}
		st.lastTick = time.Now()
		st.publish(sp)
		return
	}

	// This epoch is the status quo protocol's to account for: it feeds
	// the per-barrier cost baseline the next switch will be judged by.
	// Priced per barrier interval spanned: the state (and its clock) is
	// created at the space's first barrier, so the first epoch spans one
	// interval fewer than it counts barriers — and with EpochBarriers 1
	// none, which prices nothing.
	spans := int64(epochLen)
	if st.epoch == 1 {
		spans--
	}
	if spans > 0 {
		st.recent[st.recentN%len(st.recent)] = nanos / spans
		st.recentN++
	}

	if uint64(reads+writes) < cfg.MinOps {
		st.streak = 0
		st.calm(cfg)
		st.publish(sp)
		return
	}

	st.pattern = classifyPattern(reads, writes, locks, remoteReads,
		nReaders, nWriters, remoteWritesEver == 0, info.Adapt.Pattern)
	target, ok := p.cl.adaptTargets[st.pattern]
	if ok && st.cooled[st.pattern] {
		ok = false // a switch for this pattern already regressed here
	}
	if ok {
		tinfo, _ := p.cl.reg.Lookup(target)
		if tinfo.Adapt.HomeWritesOnly && remoteWritesEver != 0 {
			ok = false
		}
	}
	if !ok || target == sp.ProtoName {
		st.streak = 0
		st.target = ""
		st.calm(cfg)
		st.publish(sp)
		return
	}
	if st.target != target {
		st.target = target
		st.streak = 0
	}
	st.streak++
	st.wake()
	if st.streak < cfg.Hysteresis {
		st.publish(sp)
		return
	}

	st.streak = 0
	st.target = ""
	st.cooldown = cfg.Cooldown
	st.switches++
	st.lastSw = st.epoch
	// Arm probation: remember where we came from and what the incumbent's
	// recent epochs cost per barrier, so the post-cooldown probe window
	// can judge the switch.
	st.baseProto = sp.ProtoName
	st.basePattern = st.pattern
	n := st.recentN
	if n > len(st.recent) {
		n = len(st.recent)
	}
	var sum int64
	for i := 0; i < n; i++ {
		sum += st.recent[i]
	}
	if n == 0 {
		st.baseProto = "" // no priced incumbent epoch, nothing to judge by
	} else {
		st.baseCost = float64(sum) / float64(n)
	}
	st.probeNanos = 0
	st.probeBarriers = 0
	st.probeCount = 0
	if err := p.ChangeProtocol(sp, target); err != nil {
		// Unreachable unless the lockstep invariant above is broken:
		// the target was looked up, and verifyCollective can only
		// mismatch if processors decided differently.
		panic(fmt.Sprintf("core: proc %d: adaptive switch of space %d to %q failed: %v",
			p.id, sp.ID, target, err))
	}
	// Re-baseline so the switch's own flush/init traffic is not read as
	// application signal next epoch.
	if cur, ok := p.rec.SpaceSnapshot(sp.ID); ok {
		st.prev = cur
	}
	st.lastTick = time.Now()
	st.publish(sp)
}

// adaptMigrate evaluates the re-homing trigger against the epoch's
// reduced per-home traffic vector and, when one home dominates,
// migrates its hottest region to the least loaded processor. Returns
// whether a migration ran. Collective discipline: the decision is a
// pure function of the identical reduced vector, the candidate region
// is broadcast from the hot home, and MigrateHome is itself collective
// — so all processors take the same path.
func (p *Proc) adaptMigrate(sp *Space, st *adaptState, loads []int64, cfg *AdaptConfig) bool {
	if len(loads) != p.cl.Procs() {
		panic(fmt.Sprintf("core: proc %d: migration load vector has %d slots for %d procs",
			p.id, len(loads), p.cl.Procs()))
	}
	var total int64
	hot, cold := 0, 0
	for i, v := range loads {
		total += v
		if v > loads[hot] {
			hot = i
		}
		if v < loads[cold] {
			cold = i
		}
	}
	if total < int64(cfg.MinMigrateMsgs) || hot == cold {
		return false
	}
	mean := float64(total) / float64(len(loads))
	if float64(loads[hot]) <= cfg.MigrateFactor*mean {
		return false
	}
	// The hot home nominates its busiest region of the space; everyone
	// else learns it from the broadcast. Zero means the traffic was not
	// attributable to a region still homed there — no-op epoch.
	var cand RegionID
	if int(p.id) == hot {
		var best uint64
		sp.eng.Lock()
		for id, n := range sp.regIn {
			r := p.ctx.Region(id)
			if r == nil || !r.IsHome() || r.Space != sp {
				continue
			}
			if n > best || (n == best && (cand == 0 || id < cand)) {
				best, cand = n, id
			}
		}
		sp.eng.Unlock()
	}
	id := p.BroadcastID(hot, cand)
	if id == 0 {
		return false
	}
	if err := p.MigrateHome(sp, id, amnet.NodeID(cold)); err != nil {
		// Unreachable unless the lockstep invariant is broken (see the
		// adaptive-switch panic above).
		panic(fmt.Sprintf("core: proc %d: adaptive migration of %v to %d failed: %v",
			p.id, id, cold, err))
	}
	st.migrations++
	return true
}

// classifyPattern maps one epoch's cluster-wide features to an access-
// pattern label. Pure and deterministic: every processor computes the
// same label from the same aggregates.
//
// The heuristics mirror the protocol library's intended niches
// (package proto):
//
//   - lock-mediated writes → migratory: data moves in exclusive bursts
//     with the lock, so ownership should travel once per burst.
//   - home-only writes with remote readers → the barrier push-or-pull
//     family. Read-dominated epochs choose the push side
//     (producer-consumer → staticupdate, which learns sharer lists and
//     pushes at barriers); write-dominated epochs choose the pull side
//     (home-write → homewrite, where pushing every write would waste
//     bandwidth).
//   - one writer, several readers, writes not home-confined →
//     single-writer: the update protocol propagates each completed
//     write without exclusive-ownership round trips.
//   - anything else → general: sequentially consistent invalidation.
//
// current is the installed protocol's advertised pattern ("" when it
// advertises none) and makes the push-family classification sticky: a
// barrier-push protocol suppresses the very remote read misses that
// betrayed the pattern under the invalidation protocol, so absence of
// misses while one is installed is evidence of success, not of pattern
// exit. The remoteReads > 0 requirement therefore gates only the entry
// into the family; leaving it requires a positive signal (locks, a
// second writer, remote writes) classified by the earlier cases.
func classifyPattern(reads, writes, locks, remoteReads, nReaders, nWriters int64, homeWritesOnly bool, current string) string {
	inPushFamily := current == PatternProducerConsumer || current == PatternHomeWrite
	switch {
	case locks > 0 && writes > 0:
		return PatternMigratory
	case homeWritesOnly && writes > 0 && nReaders > 1 && (remoteReads > 0 || inPushFamily):
		if reads >= writes {
			return PatternProducerConsumer
		}
		return PatternHomeWrite
	case nWriters == 1 && writes > 0 && nReaders > 1:
		return PatternSingleWriter
	default:
		return PatternGeneral
	}
}
