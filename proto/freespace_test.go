package proto

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/faultnet"
	"github.com/acedsm/ace/internal/trace"
)

// FreeSpace skips the flush when no processor holds coherence state for
// the space: no view of a region it is not home to, no home directory
// listing a sharer or an owner, no space message to itself in flight.
// These tests hold every library protocol to that predicate: whatever a
// protocol keeps after brackets by the homes alone must be safe to drop
// unflushed, and a cached copy anywhere must take the flush path.

// collDelta is the collective rounds and the traffic one processor
// entered between two snapshots.
type collDelta struct {
	barriers, bcasts, reduces uint64
	sent, hops                uint64
}

func deltaOf(before, after trace.Metrics) collDelta {
	return collDelta{
		barriers: after.Coll.Barriers - before.Coll.Barriers,
		bcasts:   after.Coll.Bcasts - before.Coll.Bcasts,
		reduces:  after.Coll.Reduces - before.Coll.Reduces,
		sent:     after.Net.MsgsSent - before.Net.MsgsSent,
		hops:     after.Coll.Hops - before.Coll.Hops,
	}
}

// freeClean frees sp, returning the rounds and traffic it took, and
// checks the space is gone: the call succeeds and the ref goes stale.
func freeClean(p *core.Proc, sp *core.Space) (collDelta, error) {
	before := p.Snapshot()
	if err := p.FreeSpace(sp); err != nil {
		return collDelta{}, err
	}
	d := deltaOf(before, p.Snapshot())
	if _, err := p.SpaceByRef(sp.Ref()); !errors.Is(err, core.ErrStaleSpace) {
		return d, fmt.Errorf("proc %d: freed %v still resolves: %v", p.ID(), sp.Ref(), err)
	}
	return d, nil
}

// homeBrackets has every processor allocate one region in sp and open
// read and write sections on it; nobody else ever maps it.
func homeBrackets(p *core.Proc, sp *core.Space) {
	r := p.Map(p.GMalloc(sp, 64))
	for k := 0; k < 3; k++ {
		p.StartWrite(r)
		r.Data.SetInt64(0, r.Data.Int64(0)+1)
		p.EndWrite(r)
		p.StartRead(r)
		_ = r.Data.Int64(0)
		p.EndRead(r)
	}
	p.Unmap(r)
}

// TestFreeSpaceHomeOnlySkipsFlush: a space whose regions only their
// homes ever bracketed frees in the one verifying round, and every
// message FreeSpace sends is a hop of that round. The space barrier
// first lets each protocol settle what its home brackets sent (the
// race checker's notifications to the home, which is itself).
func TestFreeSpaceHomeOnlySkipsFlush(t *testing.T) {
	for _, name := range NewRegistry().Names() {
		t.Run(name, func(t *testing.T) {
			run(t, 4, "sc", func(p *core.Proc) error {
				sp, err := p.NewSpace(name)
				if err != nil {
					return err
				}
				homeBrackets(p, sp)
				p.Barrier(sp)
				d, err := freeClean(p, sp)
				if err != nil {
					return err
				}
				if want := (collDelta{reduces: 1, sent: d.hops, hops: d.hops}); d != want {
					return fmt.Errorf("proc %d: home-only FreeSpace took %+v, want one reduce and no message beyond its hops", p.ID(), d)
				}
				return nil
			})
		})
	}
}

// TestFreeSpaceCachedCopyFlushes: once another processor has cached a
// region and the home has written it since, FreeSpace takes the flush
// path — the round, the protocol's flush and its fencing barrier — and
// frees clean.
func TestFreeSpaceCachedCopyFlushes(t *testing.T) {
	for _, name := range NewRegistry().Names() {
		t.Run(name, func(t *testing.T) {
			run(t, 4, "sc", func(p *core.Proc) error {
				sp, err := p.NewSpace(name)
				if err != nil {
					return err
				}
				var id core.RegionID
				if p.ID() == 0 {
					id = p.GMalloc(sp, 64)
				}
				r := p.Map(p.BroadcastID(0, id))
				if p.ID() == 1 {
					p.StartRead(r)
					_ = r.Data.Int64(0)
					p.EndRead(r)
				}
				p.Barrier(sp)
				if p.ID() == 0 {
					p.StartWrite(r)
					r.Data.SetInt64(0, 42)
					p.EndWrite(r)
				}
				p.Unmap(r)
				d, err := freeClean(p, sp)
				if err != nil {
					return err
				}
				if d.barriers != 1 || d.reduces != 1 || d.bcasts != 0 {
					return fmt.Errorf("proc %d: FreeSpace with a cached copy took %+v, want one reduce and one barrier", p.ID(), d)
				}
				return nil
			})
		})
	}
}

// TestFreeSpaceUnsettledHomeBrackets frees right after the homes'
// brackets, with no barrier to settle them, over a fabric whose
// deliveries all go through the pumps. Whatever a protocol still has in
// flight to the home itself must count as held state, so the space is
// flushed rather than freed under a late message. On one processor the
// verifying round completes at once, which leaves the race checker's
// notifications in the mailbox nearly every time. Only a clean free is
// checked: whether a message is still in flight is timing.
func TestFreeSpaceUnsettledHomeBrackets(t *testing.T) {
	for _, name := range NewRegistry().Names() {
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/procs=%d", name, procs), func(t *testing.T) {
				pol := &faultnet.Policy{Seed: 1, Delay: 20 * time.Microsecond, Jitter: 50 * time.Microsecond}
				runOpts(t, core.Options{Procs: procs, Faults: pol}, func(p *core.Proc) error {
					for i := 0; i < 20; i++ {
						sp, err := p.NewSpace(name)
						if err != nil {
							return err
						}
						homeBrackets(p, sp)
						if _, err := freeClean(p, sp); err != nil {
							return err
						}
					}
					return nil
				})
			})
		}
	}
}
