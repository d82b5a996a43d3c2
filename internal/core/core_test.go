package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/trace"
)

// run spins up a cluster of n procs, runs fn SPMD, and fails the test on
// any error. The generous SyncTimeout makes a processor that returns an
// error early fail its peers' pending barriers too, so the error
// surfaces in seconds instead of as a hang until go test's timeout.
func run(t *testing.T, n int, fn func(p *Proc) error) {
	t.Helper()
	cl, err := NewCluster(Options{Procs: n, SyncTimeout: 60 * time.Second})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close()
	if err := cl.Run(fn); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestClusterOptionsValidation(t *testing.T) {
	if _, err := NewCluster(Options{Procs: 0}); err == nil {
		t.Error("expected error for 0 procs")
	}
	if _, err := NewCluster(Options{Procs: MaxProcs + 1}); err == nil {
		t.Error("expected error for too many procs")
	}
	if _, err := NewCluster(Options{Procs: 2, DefaultProtocol: "nope"}); err == nil {
		t.Error("expected error for unknown default protocol")
	}
}

func TestRunTwiceFails(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Run(func(p *Proc) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := cl.Run(func(p *Proc) error { return nil }); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestRunRecoversPanics(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		if p.ID() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want panic capture", err)
	}
}

func TestGMallocAndLocalReadWrite(t *testing.T) {
	run(t, 1, func(p *Proc) error {
		sp := p.DefaultSpace()
		id := p.GMalloc(sp, 64)
		r := p.Map(id)
		p.StartWrite(r)
		r.Data.SetFloat64(0, 2.5)
		r.Data.SetInt64(1, -9)
		p.EndWrite(r)
		p.StartRead(r)
		if r.Data.Float64(0) != 2.5 || r.Data.Int64(1) != -9 {
			return fmt.Errorf("local round trip failed")
		}
		p.EndRead(r)
		p.Unmap(r)
		return nil
	})
}

func TestRemoteReadSeesHomeWrite(t *testing.T) {
	run(t, 4, func(p *Proc) error {
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 8)
			r := p.Map(id)
			p.StartWrite(r)
			r.Data.SetInt64(0, 777)
			p.EndWrite(r)
			p.Unmap(r)
		}
		id = p.BroadcastID(0, id)
		p.GlobalBarrier()
		r := p.Map(id)
		p.StartRead(r)
		if got := r.Data.Int64(0); got != 777 {
			return fmt.Errorf("proc %d read %d, want 777", p.ID(), got)
		}
		p.EndRead(r)
		p.Unmap(r)
		return nil
	})
}

func TestRemoteWriteSeenByAll(t *testing.T) {
	run(t, 4, func(p *Proc) error {
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		if p.ID() == 3 {
			p.StartWrite(r)
			r.Data.SetInt64(0, 31337)
			p.EndWrite(r)
		}
		p.GlobalBarrier()
		p.StartRead(r)
		if got := r.Data.Int64(0); got != 31337 {
			return fmt.Errorf("proc %d read %d, want 31337", p.ID(), got)
		}
		p.EndRead(r)
		return nil
	})
}

// TestWriteSerialization is the key coherence test: concurrent increments
// through exclusive write sections must never lose updates, because
// ownership transfer carries the latest data.
func TestWriteSerialization(t *testing.T) {
	const procs, incs, regions = 8, 100, 4
	run(t, procs, func(p *Proc) error {
		var ids []RegionID
		if p.ID() == 0 {
			for i := 0; i < regions; i++ {
				ids = append(ids, p.GMalloc(p.DefaultSpace(), 8))
			}
		} else {
			ids = make([]RegionID, regions)
		}
		ids = p.BroadcastIDs(0, ids)
		rs := make([]*Region, regions)
		for i, id := range ids {
			rs[i] = p.Map(id)
		}
		for i := 0; i < incs; i++ {
			r := rs[(i+p.ID())%regions]
			p.StartWrite(r)
			r.Data.SetInt64(0, r.Data.Int64(0)+1)
			p.EndWrite(r)
		}
		p.GlobalBarrier()
		total := int64(0)
		for _, r := range rs {
			p.StartRead(r)
			total += r.Data.Int64(0)
			p.EndRead(r)
		}
		if total != procs*incs {
			return fmt.Errorf("proc %d: total %d, want %d", p.ID(), total, procs*incs)
		}
		return nil
	})
}

// TestReadersSeeMonotonicValues: one writer increments, readers must never
// observe the counter going backwards.
func TestReadersSeeMonotonicValues(t *testing.T) {
	run(t, 4, func(p *Proc) error {
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		if p.ID() == 0 {
			for i := 1; i <= 200; i++ {
				p.StartWrite(r)
				r.Data.SetInt64(0, int64(i))
				p.EndWrite(r)
			}
		} else {
			last := int64(-1)
			for i := 0; i < 200; i++ {
				p.StartRead(r)
				v := r.Data.Int64(0)
				p.EndRead(r)
				if v < last {
					return fmt.Errorf("proc %d: counter went backwards %d -> %d", p.ID(), last, v)
				}
				last = v
			}
		}
		p.GlobalBarrier()
		return nil
	})
}

func TestHomeAndRemoteContention(t *testing.T) {
	// The home itself participates in the increment storm, exercising the
	// home-access queue paths.
	const procs, incs = 6, 120
	run(t, procs, func(p *Proc) error {
		var id RegionID
		if p.ID() == 2 {
			id = p.GMalloc(p.DefaultSpace(), 8)
		}
		id = p.BroadcastID(2, id)
		r := p.Map(id)
		for i := 0; i < incs; i++ {
			p.StartWrite(r)
			r.Data.SetInt64(0, r.Data.Int64(0)+1)
			p.EndWrite(r)
		}
		p.GlobalBarrier()
		p.StartRead(r)
		got := r.Data.Int64(0)
		p.EndRead(r)
		if got != procs*incs {
			return fmt.Errorf("proc %d: got %d, want %d", p.ID(), got, procs*incs)
		}
		return nil
	})
}

func TestNestedReadSections(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 8)
			r := p.Map(id)
			p.StartWrite(r)
			r.Data.SetInt64(0, 5)
			p.EndWrite(r)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		p.StartRead(r)
		p.StartRead(r)
		if r.Data.Int64(0) != 5 {
			return fmt.Errorf("nested read failed")
		}
		p.EndRead(r)
		p.EndRead(r)
		p.GlobalBarrier()
		return nil
	})
}

func TestBarrierOrdersWrites(t *testing.T) {
	// Classic phase pattern: everyone writes their slot, barrier, everyone
	// reads all slots.
	const procs = 8
	run(t, procs, func(p *Proc) error {
		var ids []RegionID
		if p.ID() == 0 {
			for i := 0; i < procs; i++ {
				ids = append(ids, p.GMalloc(p.DefaultSpace(), 8))
			}
		} else {
			ids = make([]RegionID, procs)
		}
		ids = p.BroadcastIDs(0, ids)
		mine := p.Map(ids[p.ID()])
		p.StartWrite(mine)
		mine.Data.SetInt64(0, int64(100+p.ID()))
		p.EndWrite(mine)
		p.GlobalBarrier()
		for i, id := range ids {
			r := p.Map(id)
			p.StartRead(r)
			if got := r.Data.Int64(0); got != int64(100+i) {
				return fmt.Errorf("proc %d slot %d: got %d", p.ID(), i, got)
			}
			p.EndRead(r)
			p.Unmap(r)
		}
		p.GlobalBarrier()
		return nil
	})
}

func TestLockMutualExclusion(t *testing.T) {
	// Read-modify-write under the region lock; also covers lock queueing.
	const procs, incs = 6, 80
	run(t, procs, func(p *Proc) error {
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		for i := 0; i < incs; i++ {
			p.Lock(r)
			p.StartWrite(r)
			r.Data.SetInt64(0, r.Data.Int64(0)+1)
			p.EndWrite(r)
			p.Unlock(r)
		}
		p.GlobalBarrier()
		p.StartRead(r)
		got := r.Data.Int64(0)
		p.EndRead(r)
		if got != procs*incs {
			return fmt.Errorf("got %d, want %d", got, procs*incs)
		}
		return nil
	})
}

func TestBroadcastFromEveryRoot(t *testing.T) {
	run(t, 4, func(p *Proc) error {
		for root := 0; root < 4; root++ {
			var data []byte
			if p.ID() == root {
				data = []byte(fmt.Sprintf("from-%d", root))
			}
			got := p.Broadcast(root, data)
			want := fmt.Sprintf("from-%d", root)
			if string(got) != want {
				return fmt.Errorf("proc %d: broadcast from %d gave %q", p.ID(), root, got)
			}
		}
		return nil
	})
}

func TestAllReduce(t *testing.T) {
	run(t, 5, func(p *Proc) error {
		if got := p.AllReduceInt64(OpSum, int64(p.ID()+1)); got != 15 {
			return fmt.Errorf("sum = %d, want 15", got)
		}
		if got := p.AllReduceInt64(OpMin, int64(10-p.ID())); got != 6 {
			return fmt.Errorf("min = %d, want 6", got)
		}
		if got := p.AllReduceInt64(OpMax, int64(p.ID())); got != 4 {
			return fmt.Errorf("max = %d, want 4", got)
		}
		if got := p.AllReduceFloat64(OpSum, 0.5); got != 2.5 {
			return fmt.Errorf("fsum = %v, want 2.5", got)
		}
		if got := p.AllReduceFloat64(OpMin, float64(p.ID())-1.5); got != -1.5 {
			return fmt.Errorf("fmin = %v", got)
		}
		if got := p.AllReduceFloat64(OpMax, float64(p.ID())); got != 4 {
			return fmt.Errorf("fmax = %v", got)
		}
		return nil
	})
}

// TestAllReduceVector: the element-wise vector all-reduce combines each
// position independently in one round, including negative values, and a
// vector round interleaves correctly with scalar rounds.
func TestAllReduceVector(t *testing.T) {
	run(t, 5, func(p *Proc) error {
		id := int64(p.ID())
		got := p.AllReduceInt64s(OpSum, []int64{id + 1, -id, 7, 0})
		want := []int64{15, -10, 35, 0}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("vector sum[%d] = %d, want %d (full: %v)", i, got[i], want[i], got)
			}
		}
		if got := p.AllReduceInt64s(OpMax, []int64{id, -id}); got[0] != 4 || got[1] != 0 {
			return fmt.Errorf("vector max = %v, want [4 0]", got)
		}
		if got := p.AllReduceInt64(OpSum, 1); got != 5 {
			return fmt.Errorf("scalar sum after vector = %d, want 5", got)
		}
		return nil
	})
}

func TestNewSpaceCollective(t *testing.T) {
	run(t, 3, func(p *Proc) error {
		sp, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		if sp.ID != 1 {
			return fmt.Errorf("space id = %d, want 1", sp.ID)
		}
		var id RegionID
		if p.ID() == 1 {
			id = p.GMalloc(sp, 16)
			r := p.Map(id)
			p.StartWrite(r)
			r.Data.SetInt64(0, 11)
			p.EndWrite(r)
		}
		id = p.BroadcastID(1, id)
		r := p.Map(id)
		if r.Space.ID != 1 {
			return fmt.Errorf("mapped region in space %d", r.Space.ID)
		}
		p.StartRead(r)
		if r.Data.Int64(0) != 11 {
			return fmt.Errorf("cross-space read failed")
		}
		p.EndRead(r)
		p.GlobalBarrier()
		return nil
	})
}

func TestNewSpaceUnknownProtocol(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		if _, err := p.NewSpace("no-such-protocol"); err == nil {
			return fmt.Errorf("expected error")
		}
		return nil
	})
}

func TestChangeProtocolFlushes(t *testing.T) {
	run(t, 4, func(p *Proc) error {
		sp, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		if p.ID() == 3 {
			p.StartWrite(r)
			r.Data.SetInt64(0, 99)
			p.EndWrite(r)
			// Proc 3 holds the region exclusively; ChangeProtocol must
			// flush its dirty data home.
		}
		p.GlobalBarrier()
		if err := p.ChangeProtocol(sp, "sc"); err != nil {
			return err
		}
		if sp.Epoch != 1 {
			return fmt.Errorf("epoch = %d, want 1", sp.Epoch)
		}
		p.StartRead(r)
		if got := r.Data.Int64(0); got != 99 {
			return fmt.Errorf("proc %d: after change read %d, want 99", p.ID(), got)
		}
		p.EndRead(r)
		p.GlobalBarrier()
		return nil
	})
}

func TestOpStatsCounted(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		p.StartWrite(r)
		p.EndWrite(r)
		p.StartRead(r)
		p.EndRead(r)
		p.Unmap(r)
		p.GlobalBarrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := cl.Metrics()
	if m.Ops.Get(trace.OpGMalloc) != 1 || m.Ops.Get(trace.OpMap) != 2 ||
		m.Ops.Get(trace.OpStartWrite) != 2 || m.Ops.Get(trace.OpStartRead) != 2 ||
		m.Ops.Get(trace.OpUnmap) != 2 {
		t.Fatalf("unexpected op totals: %+v", m.Ops)
	}
	if m.Net.MsgsSent == 0 || m.Net.MsgsSent != m.Net.MsgsRecv {
		t.Fatalf("net totals inconsistent: %+v", m.Net)
	}
}

func TestMessageCountsSingleRemoteRead(t *testing.T) {
	// Directed message accounting: a cold remote read costs exactly one
	// lookup round trip plus one data round trip.
	cl, err := NewCluster(Options{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var before, after uint64
	// The id is handed over in a Go variable: a BroadcastID would carry
	// the region's size and space, and proc 1's Map would send no lookup.
	var id RegionID
	err = cl.Run(func(p *Proc) error {
		if p.ID() == 0 {
			id = p.GMalloc(p.DefaultSpace(), 8)
		}
		// Synchronize via a broadcast round: proc 0's result-wave send is
		// counted before proc 1 proceeds, so proc 1's snapshots bracket
		// exactly the traffic its own accesses cause.
		p.Broadcast(0, []byte("ready"))
		if p.ID() == 1 {
			before = p.ep.Stats().MsgsSent.Load() + p.cl.procs[0].ep.Stats().MsgsSent.Load()
			r := p.Map(id)
			p.StartRead(r)
			p.EndRead(r)
			after = p.ep.Stats().MsgsSent.Load() + p.cl.procs[0].ep.Stats().MsgsSent.Load()
		}
		p.Broadcast(1, []byte("done"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// lookup req + reply, sread req + data reply = 4 messages.
	if got := after - before; got != 4 {
		t.Fatalf("cold remote read cost %d messages, want 4", got)
	}
}

func TestEndWithoutStartPanics(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		id := p.GMalloc(p.DefaultSpace(), 8)
		r := p.Map(id)
		p.EndRead(r) // must panic, recovered by Run
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "EndRead without StartRead") {
		t.Fatalf("err = %v", err)
	}
}

func TestGMallocInvalidSize(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		p.GMalloc(p.DefaultSpace(), 0)
		return nil
	})
	if err == nil {
		t.Fatal("expected panic-derived error for zero-size GMalloc")
	}
}

func TestManyRegionsManyProcs(t *testing.T) {
	// A broader stress: every proc allocates regions, everyone reads
	// everyone's, then a second phase overwrites and re-reads.
	const procs, per = 6, 10
	run(t, procs, func(p *Proc) error {
		sp := p.DefaultSpace()
		mine := make([]RegionID, per)
		for i := range mine {
			mine[i] = p.GMalloc(sp, 16)
			r := p.Map(mine[i])
			p.StartWrite(r)
			r.Data.SetInt64(0, int64(p.ID()*1000+i))
			p.EndWrite(r)
		}
		all := make([][]RegionID, procs)
		for root := 0; root < procs; root++ {
			if root == p.ID() {
				all[root] = p.BroadcastIDs(root, mine)
			} else {
				all[root] = p.BroadcastIDs(root, make([]RegionID, per))
			}
		}
		p.GlobalBarrier()
		for root := 0; root < procs; root++ {
			for i, id := range all[root] {
				r := p.Map(id)
				p.StartRead(r)
				if got := r.Data.Int64(0); got != int64(root*1000+i) {
					return fmt.Errorf("phase1 proc %d: region %d/%d = %d", p.ID(), root, i, got)
				}
				p.EndRead(r)
			}
		}
		p.GlobalBarrier()
		// Phase 2: proc (root+1)%procs overwrites root's regions.
		for root := 0; root < procs; root++ {
			if p.ID() == (root+1)%procs {
				for i, id := range all[root] {
					r := p.Map(id)
					p.StartWrite(r)
					r.Data.SetInt64(0, int64(root*1000+i+7))
					p.EndWrite(r)
				}
			}
		}
		p.GlobalBarrier()
		for root := 0; root < procs; root++ {
			for i, id := range all[root] {
				r := p.Map(id)
				p.StartRead(r)
				if got := r.Data.Int64(0); got != int64(root*1000+i+7) {
					return fmt.Errorf("phase2 proc %d: region %d/%d = %d", p.ID(), root, i, got)
				}
				p.EndRead(r)
			}
		}
		p.GlobalBarrier()
		return nil
	})
}

// TestLookupServedWhileHomeEngineHeld: a region's first Map on another
// processor asks the home for its size and space, which are fixed when
// the region is allocated, so the home answers without taking its
// space's engine. Proc 0 holds that engine while proc 1 maps one of its
// regions for the first time; the Map must return while the lock is
// still held. The id is handed over in a Go variable, not broadcast: a
// broadcast carries the size and space, and proc 1's Map would then
// send no lookup at all.
func TestLookupServedWhileHomeEngineHeld(t *testing.T) {
	held, mapped := make(chan struct{}), make(chan struct{})
	var id RegionID // written by proc 0 before held closes
	run(t, 2, func(p *Proc) error {
		sp := p.DefaultSpace()
		if p.ID() == 1 {
			<-held
			before := p.ep.Stats().MsgsSent.Load()
			r := p.Map(id)
			sent := p.ep.Stats().MsgsSent.Load() - before
			close(mapped)
			defer p.Unmap(r)
			if sent != 1 {
				return fmt.Errorf("proc 1's first Map of %v sent %d messages, want the one lookup", id, sent)
			}
			if r.Size != 8 || r.Home != 0 || r.Space != sp {
				return fmt.Errorf("mapped %v: size %d, home %d, space %d; want 8, 0, %d",
					id, r.Size, r.Home, r.Space.ID, sp.ID)
			}
			return nil
		}
		id = p.GMalloc(sp, 8)
		sp.eng.Lock()
		close(held)
		var err error
		select {
		case <-mapped:
		case <-time.After(2 * time.Second):
			err = fmt.Errorf("proc 1's first Map of %v did not return while the home held its engine", id)
		}
		sp.eng.Unlock()
		<-mapped
		return err
	})
}

// nonHomeViews counts this processor's views of regions in sps homed
// elsewhere.
func nonHomeViews(sps ...*Space) int {
	n := 0
	for _, sp := range sps {
		sp.eng.Lock()
		for _, r := range sp.regions {
			if !r.IsHome() {
				n++
			}
		}
		sp.eng.Unlock()
	}
	return n
}

// TestBroadcastMapsWithoutLookup: a broadcast id carries the size and
// space of the root's view of its region, so every receiver's first Map
// of it is local, in the default space and in a NewSpace alike, through
// BroadcastIDs and BroadcastID. The receiver keeps that as a hint, not a
// view: after mapping half the ids it holds a view of exactly the
// mapped ones it is not home to. An id the root holds no view of still
// costs each receiver that is not its home exactly one lookup.
func TestBroadcastMapsWithoutLookup(t *testing.T) {
	const procs = 4
	type want struct {
		id    RegionID
		size  int
		home  int
		sp    *Space
		value int64
	}
	var hidden RegionID // homed on proc 2, handed to root 0 in Go
	run(t, procs, func(p *Proc) error {
		other, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		var ws []want
		for root := 0; root < procs; root++ {
			for k, sp := range []*Space{p.DefaultSpace(), other} {
				// Three regions per root and space, each of its own
				// size and value: two through BroadcastIDs, one
				// through BroadcastID.
				var mine [3]RegionID
				base := len(ws)
				for i := range mine {
					ws = append(ws, want{size: 8 * (base + i + 1), home: root, sp: sp, value: int64(1000*root + 100*k + i)})
					if p.ID() == root {
						w := ws[base+i]
						mine[i] = p.GMalloc(sp, w.size)
						r := p.Map(mine[i])
						p.StartWrite(r)
						r.Data.SetInt64(0, w.value)
						p.EndWrite(r)
						p.Unmap(r)
					}
				}
				got := append(p.BroadcastIDs(root, mine[:2]), p.BroadcastID(root, mine[2]))
				for i, id := range got {
					ws[base+i].id = id
				}
			}
		}
		p.GlobalBarrier()
		before := p.ep.Stats().MsgsSent.Load()
		rs := make([]*Region, len(ws))
		half, mappedViews := len(ws)/2, 0
		for i, w := range ws[:half] {
			rs[i] = p.Map(w.id)
			if w.home != p.ID() {
				mappedViews++
			}
		}
		if views := nonHomeViews(p.DefaultSpace(), other); views != mappedViews {
			return fmt.Errorf("proc %d: %d non-home views after mapping %d of %d broadcast ids, want %d",
				p.ID(), views, half, len(ws), mappedViews)
		}
		for i, w := range ws[half:] {
			rs[half+i] = p.Map(w.id)
		}
		if sent := p.ep.Stats().MsgsSent.Load() - before; sent != 0 {
			return fmt.Errorf("proc %d: mapping %d broadcast ids sent %d messages, want 0", p.ID(), len(ws), sent)
		}
		for i, w := range ws {
			r := rs[i]
			if r.Size != w.size || int(r.Home) != w.home || r.Space != w.sp {
				return fmt.Errorf("proc %d: %v: size %d, home %d, space %d; want %d, %d, %d",
					p.ID(), w.id, r.Size, r.Home, r.Space.ID, w.size, w.home, w.sp.ID)
			}
		}
		p.GlobalBarrier()
		for i, w := range ws {
			r := rs[i]
			p.StartRead(r)
			got := r.Data.Int64(0)
			p.EndRead(r)
			p.Unmap(r)
			if got != w.value {
				return fmt.Errorf("proc %d: %v read %d, want the home's %d", p.ID(), w.id, got, w.value)
			}
		}

		// Root 0 broadcasts an id it has never mapped: the broadcast
		// carries no size, and each processor but the home looks it up.
		if p.ID() == 2 {
			hidden = p.GMalloc(p.DefaultSpace(), 24)
		}
		p.GlobalBarrier()
		var id RegionID
		if p.ID() == 0 {
			id = hidden
		}
		id = p.BroadcastID(0, id)
		p.GlobalBarrier()
		before = p.ep.Stats().MsgsSent.Load()
		r := p.Map(id)
		sent := p.ep.Stats().MsgsSent.Load() - before
		defer p.Unmap(r)
		if p.ID() != 2 && sent != 1 {
			return fmt.Errorf("proc %d: first Map of %v, broadcast without a view, sent %d messages, want the one lookup", p.ID(), id, sent)
		}
		if r.Size != 24 || r.Home != 2 || r.Space != p.DefaultSpace() {
			return fmt.Errorf("proc %d: %v: size %d, home %d, space %d; want 24, 2, %d",
				p.ID(), id, r.Size, r.Home, r.Space.ID, p.DefaultSpace().ID)
		}
		p.GlobalBarrier()
		return nil
	})
}
