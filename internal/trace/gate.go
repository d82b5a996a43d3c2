package trace

import "sync/atomic"

// GateStats is the session gateway's telemetry: session and room
// lifecycle counts, op throughput, and — the part that matters under
// load — the backpressure counters for the bounded per-session send
// queues and per-room op queues. All updates are atomic; a consistent
// snapshot requires quiescence, like NetStats.
type GateStats struct {
	SessionsOpened atomic.Uint64
	SessionsClosed atomic.Uint64
	RoomsCreated   atomic.Uint64
	RoomsDestroyed atomic.Uint64

	FramesIn  atomic.Uint64
	FramesOut atomic.Uint64
	// BadFrames counts client frames the decoder rejected (malformed,
	// oversized, unknown op). Rejections answer with an error event or a
	// close — never a panic.
	BadFrames atomic.Uint64

	OpsApplied atomic.Uint64
	// OpsDropped counts client ops discarded before application: room op
	// queue full, room not joined, or op raced a room teardown.
	OpsDropped atomic.Uint64
	// StaleSpaceRefs counts ops that named a space generation the space
	// table no longer carries (the op raced a destroy); they are dropped,
	// never applied to the slot's new occupant.
	StaleSpaceRefs atomic.Uint64
	Broadcasts     atomic.Uint64

	// SendQueueDrops counts event frames dropped because a session's
	// bounded send queue was full; SlowClients counts sessions closed
	// for sustained backpressure (past the gateway's budget of drops in
	// a row). SendQueueHighWater is the deepest any session's queue has
	// been; OpQueueHighWater the deepest any room's op queue has been.
	SendQueueDrops     atomic.Uint64
	SlowClients        atomic.Uint64
	SendQueueHighWater atomic.Uint64
	OpQueueHighWater   atomic.Uint64
}

// ObserveSendQueue folds one session queue depth into the high-water mark.
func (g *GateStats) ObserveSendQueue(depth int) { observeMax(&g.SendQueueHighWater, depth) }

// ObserveOpQueue folds one room op-queue depth into the high-water mark.
func (g *GateStats) ObserveOpQueue(depth int) { observeMax(&g.OpQueueHighWater, depth) }

func observeMax(hw *atomic.Uint64, depth int) {
	d := uint64(depth)
	for {
		cur := hw.Load()
		if d <= cur || hw.CompareAndSwap(cur, d) {
			return
		}
	}
}

// Snapshot returns the current counter values.
func (g *GateStats) Snapshot() GateSnapshot {
	return GateSnapshot{
		SessionsOpened:     g.SessionsOpened.Load(),
		SessionsClosed:     g.SessionsClosed.Load(),
		RoomsCreated:       g.RoomsCreated.Load(),
		RoomsDestroyed:     g.RoomsDestroyed.Load(),
		FramesIn:           g.FramesIn.Load(),
		FramesOut:          g.FramesOut.Load(),
		BadFrames:          g.BadFrames.Load(),
		OpsApplied:         g.OpsApplied.Load(),
		OpsDropped:         g.OpsDropped.Load(),
		StaleSpaceRefs:     g.StaleSpaceRefs.Load(),
		Broadcasts:         g.Broadcasts.Load(),
		SendQueueDrops:     g.SendQueueDrops.Load(),
		SlowClients:        g.SlowClients.Load(),
		SendQueueHighWater: g.SendQueueHighWater.Load(),
		OpQueueHighWater:   g.OpQueueHighWater.Load(),
	}
}

// GateSnapshot is a plain-value copy of GateStats.
type GateSnapshot struct {
	SessionsOpened, SessionsClosed uint64
	RoomsCreated, RoomsDestroyed   uint64
	FramesIn, FramesOut, BadFrames uint64
	OpsApplied, OpsDropped         uint64
	StaleSpaceRefs, Broadcasts     uint64
	SendQueueDrops, SlowClients    uint64
	SendQueueHighWater             uint64
	OpQueueHighWater               uint64
}
