package core

import (
	"fmt"
	"testing"
)

// hookProto counts its map and unmap hooks and checks they run with the
// space's engine held.
type hookProto struct {
	Base
	maps, unmaps, unlocked int
}

func (*hookProto) Name() string { return "hook" }

func (h *hookProto) Map(_ *Ctx, r *Region) {
	h.maps++
	h.checkEngine(r)
}

func (h *hookProto) Unmap(_ *Ctx, r *Region) {
	h.unmaps++
	h.checkEngine(r)
}

func (h *hookProto) checkEngine(r *Region) {
	if r.Space.eng.TryLock() {
		r.Space.eng.Unlock()
		h.unlocked++
	}
}

// TestMapUnmapHooksRunUnlessDeclaredNull pins the null-point rule from
// both sides: a protocol that overrides Map and Unmap and does not declare
// them null gets both hooks, under the engine, at the home and remotely;
// the same protocol registered with the points declared null is never
// called — the runtime keeps only the map count.
func TestMapUnmapHooksRunUnlessDeclaredNull(t *testing.T) {
	for _, tc := range []struct {
		name string
		null PointSet
		want int
	}{
		{"hooked", 0, 3},
		{"null", PointSet(0).With(PointMap).With(PointUnmap), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := NewRegistry()
			reg.MustRegister(Info{Name: "hook", New: func() Protocol { return &hookProto{} }, Null: tc.null})
			cl, err := NewCluster(Options{Procs: 2, Registry: reg, DefaultProtocol: "hook"})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			err = cl.Run(func(p *Proc) error {
				sp := p.DefaultSpace()
				var id RegionID
				if p.ID() == 0 {
					id = p.GMalloc(sp, 8)
				}
				id = p.BroadcastID(0, id)
				var r *Region
				for i := 0; i < 3; i++ {
					r = p.Map(id)
					if r.MapCount != 1 {
						return fmt.Errorf("proc %d: MapCount %d after map", p.ID(), r.MapCount)
					}
					p.Unmap(r)
				}
				if r.MapCount != 0 {
					return fmt.Errorf("proc %d: MapCount %d after unmap", p.ID(), r.MapCount)
				}
				h := sp.Proto.(*hookProto)
				if h.maps != tc.want || h.unmaps != tc.want {
					return fmt.Errorf("proc %d: %d map and %d unmap hooks, want %d each", p.ID(), h.maps, h.unmaps, tc.want)
				}
				if h.unlocked != 0 {
					return fmt.Errorf("proc %d: %d hooks ran without the engine", p.ID(), h.unlocked)
				}
				p.GlobalBarrier()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRemoteReadMissDoesNotAllocate pins the steady-state cost of a remote
// sc read miss on the channel fabric: the waiter comes from the free list,
// the reply's payload buffer from the pool, and the home's request queue
// keeps its backing array — so with the home idle the whole round trip
// (dispatched directly on this goroutine, or queued if the scheduler gets
// in the way) allocates nothing.
func TestRemoteReadMissDoesNotAllocate(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		sp := p.DefaultSpace()
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 64)
		}
		id = p.BroadcastID(0, id)
		var err error
		if p.ID() == 1 {
			r := p.Map(id)
			miss := func() {
				p.StartRead(r)
				p.EndRead(r)
				if !p.DropCopy(r) {
					panic("copy not dropped: the next read would hit")
				}
			}
			for i := 0; i < 16; i++ {
				miss() // warm the free list, the pool and the home's queue
			}
			before := p.Snapshot().Net.MsgsSent
			const runs = 200
			allocs := testing.AllocsPerRun(runs, miss)
			if sent := p.Snapshot().Net.MsgsSent - before; sent != runs+1 {
				err = fmt.Errorf("%d requests for %d reads: not every read missed", sent, runs+1)
			} else if allocs != 0 {
				err = fmt.Errorf("a remote read miss allocates %.1f times, want 0", allocs)
			}
		}
		p.GlobalBarrier() // the home sits here, idle, while proc 1 measures
		return err
	})
}
