package core

import (
	"fmt"
	"sync/atomic"

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

// The controller's fixed policy: it evaluates a space once per epoch of
// epochBarriers barriers, switches after hysteresis consecutive epochs
// point at the same non-installed protocol, then only observes for
// cooldown epochs while the new protocol warms up. An epoch with fewer
// than minOps cluster-wide brackets carries no signal and decays the
// streak instead of feeding it.
//
// The controller's monitoring collective is an extra cluster-wide
// synchronization round every epoch — real money on a converged space
// that will never switch again. After stableEpochs consecutive epochs
// that gave the controller nothing to do, the epoch length doubles, up
// to maxEpochStretch times epochBarriers; any signal snaps it back.
const (
	epochBarriers   = 2
	hysteresis      = 2
	cooldown        = 1
	minOps          = 8
	stableEpochs    = 3
	maxEpochStretch = 8
)

// AdaptHints is a protocol's declaration to the adaptive controller, part
// of its registry Info. The zero value opts the protocol out entirely:
// the controller neither installs it nor switches a space away from it.
type AdaptHints struct {
	// Pattern names the access pattern the protocol serves best (one of
	// the Pattern* constants) and opts the protocol into online
	// adaptation, in both directions: the controller installs it when a
	// space's observed pattern matches, and may switch a space running
	// it away. Only protocols whose barrier globally synchronizes all
	// processors may name one — the controller runs collectives at
	// barrier points and relies on every processor reaching them in
	// lockstep.
	Pattern string
	// HomeWritesOnly marks protocols that reject write sections on
	// regions homed elsewhere (staticupdate, homewrite panic on them).
	// The controller installs such a protocol only while no processor
	// has ever opened a remote write section in the run — the strongest
	// evidence available that the application honors the restriction.
	HomeWritesOnly bool
}

// adaptTargetTable maps each advertised pattern to the protocol
// registered for it. Built once at cluster creation from the registry's
// sorted name list, so every processor resolves patterns identically;
// protocols registered after NewCluster are not considered.
func adaptTargetTable(reg *Registry) map[string]string {
	t := make(map[string]string)
	for _, name := range reg.Names() {
		info, _ := reg.Lookup(name)
		pat := info.Adapt.Pattern
		if pat == "" {
			continue
		}
		if _, dup := t[pat]; !dup {
			t[pat] = name
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

	// Monitoring-cadence backoff (see stableEpochs): stable counts
	// consecutive do-nothing epochs, epochLen is the current barriers-
	// per-epoch.
	stable   int
	epochLen int

	pub atomic.Pointer[trace.AdaptStats]
}

// calm records a do-nothing epoch: after stableEpochs in a row the
// monitoring cadence halves (the epoch length doubles, capped at
// maxEpochStretch×), so a converged space stops paying the per-epoch
// collective.
func (st *adaptState) calm() {
	st.stable++
	if st.stable < stableEpochs {
		return
	}
	st.stable = 0
	if next := st.epochLen * 2; next <= epochBarriers*maxEpochStretch {
		st.epochLen = next
	}
}

// wake snaps the cadence back to epochBarriers: the epoch carried
// signal and the controller needs full resolution again.
func (st *adaptState) wake() {
	st.stable = 0
	st.epochLen = epochBarriers
}

// adaptState returns sp's controller state, creating it on first use.
// The baseline snapshot is taken at creation — the first barrier — so
// the setup phase (allocation, data distribution) does not bias the
// first epoch's classification.
func (sp *Space) adaptState() *adaptState {
	if st := sp.adapt.Load(); st != nil {
		return st
	}
	st := &adaptState{epochLen: epochBarriers}
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
		LastSwitchEpoch: st.lastSw,
	}
	st.pub.Store(&s)
}

// adaptTick runs the controller for sp at a barrier point. Called by
// Proc.Barrier (application thread, engine lock released) when
// Options.Adapt is set.
//
// Collective discipline: the tick is gated on the installed protocol
// naming a Pattern, and such protocols have globally synchronizing
// barriers — so when one processor reaches an epoch boundary, all do,
// and the AllReduce sequence below lines up across processors. Every
// decision input is a cluster-wide aggregate, making the decision — and
// therefore the ChangeProtocol call — identical everywhere without any
// extra coordination round.
func (p *Proc) adaptTick(sp *Space) {
	info, ok := p.cl.reg.Lookup(sp.ProtoName)
	if !ok || info.Adapt.Pattern == "" {
		return
	}
	st := sp.adaptState()
	st.barriers++
	if st.barriers < st.epochLen {
		return
	}
	st.barriers = 0
	st.epoch++

	cur, ok := p.rec.SpaceSnapshot(sp.ID)
	if !ok {
		return
	}
	// The epoch's deltas of the counts the controller reads. The
	// counters never reset, so the plain differences are exact.
	var ops trace.OpCounts
	for op := range ops {
		ops[op] = cur.Ops[op] - st.prev.Ops[op]
	}
	readMisses := cur.RemoteReadMisses - st.prev.RemoteReadMisses
	st.prev = cur

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
	}
	agg := p.AllReduceInt64s(OpSum, feats)
	reads, writes, locks := agg[0], agg[1], agg[2]
	remoteReads, nWriters, nReaders := agg[3], agg[4], agg[5]
	remoteWritesEver := agg[6]

	if st.cooldown > 0 {
		st.cooldown--
		st.streak = 0
		st.wake()
		st.publish(sp)
		return
	}

	if reads+writes < minOps {
		st.streak = 0
		st.calm()
		st.publish(sp)
		return
	}

	st.pattern = classifyPattern(reads, writes, locks, remoteReads,
		nReaders, nWriters, remoteWritesEver == 0, info.Adapt.Pattern)
	target, ok := p.cl.adaptTargets[st.pattern]
	if ok {
		tinfo, _ := p.cl.reg.Lookup(target)
		if tinfo.Adapt.HomeWritesOnly && remoteWritesEver != 0 {
			ok = false
		}
	}
	if !ok || target == sp.ProtoName {
		st.streak = 0
		st.target = ""
		st.calm()
		st.publish(sp)
		return
	}
	if st.target != target {
		st.target = target
		st.streak = 0
	}
	st.streak++
	st.wake()
	if st.streak < hysteresis {
		st.publish(sp)
		return
	}

	st.streak = 0
	st.target = ""
	st.cooldown = cooldown
	st.switches++
	st.lastSw = st.epoch
	if err := p.ChangeProtocol(sp, target); err != nil {
		// Unreachable unless the lockstep invariant above is broken:
		// the target was looked up, and the verifying round can only
		// mismatch if processors decided differently.
		panic(fmt.Sprintf("core: proc %d: adaptive switch of space %d to %q failed: %v",
			p.id, sp.ID, target, err))
	}
	// Re-baseline so the switch's own flush/init traffic is not read as
	// application signal next epoch.
	if cur, ok := p.rec.SpaceSnapshot(sp.ID); ok {
		st.prev = cur
	}
	st.publish(sp)
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
