package proto

import (
	"fmt"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/core"
)

// run spins up a cluster with the full protocol library and executes fn.
func run(t *testing.T, procs int, defaultProto string, fn func(p *core.Proc) error) *core.Cluster {
	t.Helper()
	return runOpts(t, core.Options{Procs: procs, DefaultProtocol: defaultProto}, fn)
}

// runOpts is run with more options. The generous SyncTimeout makes a
// processor that returns an error early fail its peers' pending
// barriers too, so the error surfaces in seconds instead of as a hang
// until go test's timeout.
func runOpts(t *testing.T, opts core.Options, fn func(p *core.Proc) error) *core.Cluster {
	t.Helper()
	opts.Registry = NewRegistry()
	opts.SyncTimeout = 60 * time.Second
	cl, err := core.NewCluster(opts)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	if err := cl.Run(fn); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return cl
}

func TestRegistryHasAllProtocols(t *testing.T) {
	reg := NewRegistry()
	want := []string{"atomic", "homewrite", "migratory", "null", "pipeline", "racecheck", "sc", "staticupdate", "update", "writethrough"}
	got := reg.Names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v, want %v", got, want)
		}
	}
}

func TestRegisterAllTwiceFails(t *testing.T) {
	reg := NewRegistry()
	if err := RegisterAll(reg); err == nil {
		t.Fatal("duplicate registration should fail")
	}
}

func TestNullProtocolHomeLocal(t *testing.T) {
	run(t, 4, "sc", func(p *core.Proc) error {
		sp, err := p.NewSpace("null")
		if err != nil {
			return err
		}
		id := p.GMalloc(sp, 16)
		r := p.Map(id)
		for i := 0; i < 50; i++ {
			p.StartWrite(r)
			r.Data.SetInt64(0, int64(i*p.ID()))
			p.EndWrite(r)
			p.StartRead(r)
			if r.Data.Int64(0) != int64(i*p.ID()) {
				return fmt.Errorf("null: lost local write")
			}
			p.EndRead(r)
		}
		p.Barrier(sp)
		return nil
	})
}

func TestUpdateProducerConsumer(t *testing.T) {
	const procs, iters = 4, 20
	run(t, procs, "sc", func(p *core.Proc) error {
		sp, err := p.NewSpace("update")
		if err != nil {
			return err
		}
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		// Everyone reads once to register as a sharer.
		p.StartRead(r)
		p.EndRead(r)
		p.Barrier(sp)
		for i := 1; i <= iters; i++ {
			if p.ID() == 0 {
				p.StartWrite(r)
				r.Data.SetInt64(0, int64(i))
				p.EndWrite(r)
			}
			p.Barrier(sp)
			p.StartRead(r)
			if got := r.Data.Int64(0); got != int64(i) {
				return fmt.Errorf("update: proc %d iter %d read %d", p.ID(), i, got)
			}
			p.EndRead(r)
			p.Barrier(sp)
		}
		return nil
	})
}

func TestUpdateMultipleWritersDistinctRegions(t *testing.T) {
	const procs, iters = 4, 10
	run(t, procs, "update", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		ids := make([]core.RegionID, procs)
		for root := 0; root < procs; root++ {
			var mine core.RegionID
			if p.ID() == root {
				mine = p.GMalloc(sp, 8)
			}
			ids[root] = p.BroadcastID(root, mine)
		}
		rs := make([]*core.Region, procs)
		for i, id := range ids {
			rs[i] = p.Map(id)
			p.StartRead(rs[i]) // register everywhere
			p.EndRead(rs[i])
		}
		p.Barrier(sp)
		for i := 1; i <= iters; i++ {
			mine := rs[p.ID()]
			p.StartWrite(mine)
			mine.Data.SetInt64(0, int64(p.ID()*1000+i))
			p.EndWrite(mine)
			p.Barrier(sp)
			for q := 0; q < procs; q++ {
				p.StartRead(rs[q])
				if got := rs[q].Data.Int64(0); got != int64(q*1000+i) {
					return fmt.Errorf("proc %d iter %d region %d: got %d", p.ID(), i, q, got)
				}
				p.EndRead(rs[q])
			}
			p.Barrier(sp)
		}
		return nil
	})
}

// TestUpdateCheaperThanSCForProducerConsumer is a shape test: the paper's
// motivation for update protocols is that producer-consumer sharing is
// ill-suited to invalidation. After warmup, the steady-state message count
// per iteration must be lower with the update protocol.
func TestUpdateCheaperThanSCForProducerConsumer(t *testing.T) {
	const procs, iters = 8, 30
	measure := func(protoName string) uint64 {
		var msgs uint64
		cl := run(t, procs, protoName, func(p *core.Proc) error {
			sp := p.DefaultSpace()
			var id core.RegionID
			if p.ID() == 0 {
				id = p.GMalloc(sp, 64)
			}
			id = p.BroadcastID(0, id)
			r := p.Map(id)
			p.StartRead(r)
			p.EndRead(r)
			p.Barrier(sp)
			for i := 0; i < iters; i++ {
				if p.ID() == 0 {
					p.StartWrite(r)
					r.Data.SetInt64(0, int64(i))
					p.EndWrite(r)
				}
				p.Barrier(sp)
				p.StartRead(r)
				if r.Data.Int64(0) != int64(i) {
					return fmt.Errorf("bad value under %s", protoName)
				}
				p.EndRead(r)
				p.Barrier(sp)
			}
			return nil
		})
		msgs = cl.Metrics().Net.MsgsSent
		return msgs
	}
	sc := measure("sc")
	upd := measure("update")
	if upd >= sc {
		t.Fatalf("update protocol used %d messages, sc used %d; update should be cheaper", upd, sc)
	}
}

func TestStaticUpdateEM3DPattern(t *testing.T) {
	const procs, iters = 4, 12
	run(t, procs, "staticupdate", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		ids := make([]core.RegionID, procs)
		for root := 0; root < procs; root++ {
			var mine core.RegionID
			if p.ID() == root {
				mine = p.GMalloc(sp, 8)
			}
			ids[root] = p.BroadcastID(root, mine)
		}
		mine := p.Map(ids[p.ID()])
		// Static neighborhood: read left and right neighbors.
		left := p.Map(ids[(p.ID()+procs-1)%procs])
		right := p.Map(ids[(p.ID()+1)%procs])
		for i := 1; i <= iters; i++ {
			p.StartWrite(mine)
			mine.Data.SetInt64(0, int64(p.ID()*100+i))
			p.EndWrite(mine)
			p.Barrier(sp)
			for _, pair := range []struct {
				r    *core.Region
				node int
			}{{left, (p.ID() + procs - 1) % procs}, {right, (p.ID() + 1) % procs}} {
				p.StartRead(pair.r)
				if got := pair.r.Data.Int64(0); got != int64(pair.node*100+i) {
					return fmt.Errorf("proc %d iter %d neighbor %d: got %d", p.ID(), i, pair.node, got)
				}
				p.EndRead(pair.r)
			}
			p.Barrier(sp)
		}
		return nil
	})
}

// TestStaticUpdateNoSteadyStateMisses verifies the protocol's point: after
// the first iteration, iterations cost a bounded number of messages (the
// pushes and barrier traffic only — no read-miss round trips).
func TestStaticUpdateNoSteadyStateMisses(t *testing.T) {
	const procs = 4
	var iter1, iterN uint64
	cl, err := core.NewCluster(core.Options{Procs: procs, Registry: NewRegistry(), DefaultProtocol: "staticupdate"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *core.Proc) error {
		sp := p.DefaultSpace()
		ids := make([]core.RegionID, procs)
		for root := 0; root < procs; root++ {
			var mine core.RegionID
			if p.ID() == root {
				mine = p.GMalloc(sp, 8)
			}
			ids[root] = p.BroadcastID(root, mine)
		}
		mine := p.Map(ids[p.ID()])
		next := p.Map(ids[(p.ID()+1)%procs])
		doIter := func(i int) error {
			p.StartWrite(mine)
			mine.Data.SetInt64(0, int64(i))
			p.EndWrite(mine)
			p.Barrier(sp)
			p.StartRead(next)
			if next.Data.Int64(0) != int64(i) {
				return fmt.Errorf("iter %d bad", i)
			}
			p.EndRead(next)
			p.Barrier(sp)
			return nil
		}
		if err := doIter(1); err != nil {
			return err
		}
		if p.ID() == 0 {
			iter1 = p.Cluster().Metrics().Net.MsgsSent
		}
		p.GlobalBarrier()
		for i := 2; i <= 6; i++ {
			if err := doIter(i); err != nil {
				return err
			}
		}
		p.GlobalBarrier()
		if p.ID() == 0 {
			iterN = p.Cluster().Metrics().Net.MsgsSent
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	perIterSteady := float64(iterN-iter1) / 5
	if perIterSteady >= float64(iter1) {
		t.Fatalf("steady-state per-iteration cost %.1f not below first-iteration cost %d", perIterSteady, iter1)
	}
}

func TestMigratoryIncrements(t *testing.T) {
	const procs, incs = 4, 50
	run(t, procs, "migratory", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		for i := 0; i < incs; i++ {
			p.StartWrite(r)
			r.Data.SetInt64(0, r.Data.Int64(0)+1)
			p.EndWrite(r)
		}
		p.Barrier(sp)
		p.StartRead(r)
		got := r.Data.Int64(0)
		p.EndRead(r)
		if got != procs*incs {
			return fmt.Errorf("migratory: got %d, want %d", got, procs*incs)
		}
		p.Barrier(sp)
		return nil
	})
}

func TestMigratoryBurstLocality(t *testing.T) {
	// Sequential bursts: proc i does a burst of accesses, passes a baton.
	const procs, burst = 3, 30
	run(t, procs, "migratory", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		for turn := 0; turn < procs; turn++ {
			if turn == p.ID() {
				for i := 0; i < burst; i++ {
					p.StartWrite(r)
					r.Data.SetInt64(0, r.Data.Int64(0)+1)
					p.EndWrite(r)
				}
			}
			p.Barrier(sp)
		}
		p.StartRead(r)
		got := r.Data.Int64(0)
		p.EndRead(r)
		if got != procs*burst {
			return fmt.Errorf("got %d, want %d", got, procs*burst)
		}
		p.Barrier(sp)
		return nil
	})
}

func TestPipelineAccumulation(t *testing.T) {
	const procs, slots = 5, 8
	run(t, procs, "pipeline", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, slots*8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		p.Barrier(sp)
		// Every processor contributes (id+1) to every slot.
		p.StartWrite(r)
		for s := 0; s < slots; s++ {
			r.Data.SetFloat64(s, r.Data.Float64(s)+float64(p.ID()+1))
		}
		p.EndWrite(r)
		p.Barrier(sp)
		p.StartRead(r)
		want := float64(procs * (procs + 1) / 2)
		for s := 0; s < slots; s++ {
			if got := r.Data.Float64(s); got != want {
				return fmt.Errorf("pipeline: proc %d slot %d = %v, want %v", p.ID(), s, got, want)
			}
		}
		p.EndRead(r)
		p.Barrier(sp)
		return nil
	})
}

func TestPipelineMultipleRounds(t *testing.T) {
	const procs, rounds = 4, 6
	run(t, procs, "pipeline", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 1 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(1, id)
		r := p.Map(id)
		p.Barrier(sp)
		for round := 1; round <= rounds; round++ {
			p.StartWrite(r)
			r.Data.SetFloat64(0, r.Data.Float64(0)+1)
			p.EndWrite(r)
			p.Barrier(sp)
			p.StartRead(r)
			if got := r.Data.Float64(0); got != float64(procs*round) {
				return fmt.Errorf("round %d: got %v, want %v", round, got, float64(procs*round))
			}
			p.EndRead(r)
			p.Barrier(sp)
		}
		return nil
	})
}

func TestAtomicCounterAssignsDistinctJobs(t *testing.T) {
	const procs, per = 6, 25
	claimed := make([][]int64, procs)
	run(t, procs, "atomic", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		var mine []int64
		for i := 0; i < per; i++ {
			p.StartWrite(r)
			v := r.Data.Int64(0)
			r.Data.SetInt64(0, v+1)
			p.EndWrite(r)
			mine = append(mine, v)
		}
		claimed[p.ID()] = mine
		p.Barrier(sp)
		p.StartRead(r)
		if got := r.Data.Int64(0); got != procs*per {
			return fmt.Errorf("atomic: final counter %d, want %d", got, procs*per)
		}
		p.EndRead(r)
		p.Barrier(sp)
		return nil
	})
	seen := map[int64]bool{}
	for _, mine := range claimed {
		for _, v := range mine {
			if seen[v] {
				t.Fatalf("job %d assigned twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != procs*per {
		t.Fatalf("assigned %d jobs, want %d", len(seen), procs*per)
	}
}

func TestHomeWritePhases(t *testing.T) {
	const procs, phases = 4, 8
	run(t, procs, "homewrite", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		ids := make([]core.RegionID, procs)
		for root := 0; root < procs; root++ {
			var mine core.RegionID
			if p.ID() == root {
				mine = p.GMalloc(sp, 8)
			}
			ids[root] = p.BroadcastID(root, mine)
		}
		mine := p.Map(ids[p.ID()])
		for ph := 1; ph <= phases; ph++ {
			p.StartWrite(mine)
			mine.Data.SetInt64(0, int64(p.ID()*10+ph))
			p.EndWrite(mine)
			p.Barrier(sp)
			for q := 0; q < procs; q++ {
				r := p.Map(ids[q])
				p.StartRead(r)
				if got := r.Data.Int64(0); got != int64(q*10+ph) {
					return fmt.Errorf("proc %d phase %d region %d: got %d", p.ID(), ph, q, got)
				}
				p.EndRead(r)
				p.Unmap(r)
			}
			p.Barrier(sp)
		}
		return nil
	})
}

func TestChangeProtocolAcrossLibrary(t *testing.T) {
	// sc -> update -> null -> sc, checking data integrity at each step.
	const procs = 4
	run(t, procs, "sc", func(p *core.Proc) error {
		sp, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		var id core.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		if p.ID() == 2 {
			p.StartWrite(r)
			r.Data.SetInt64(0, 1)
			p.EndWrite(r)
		}
		p.GlobalBarrier()
		if err := p.ChangeProtocol(sp, "update"); err != nil {
			return err
		}
		p.StartRead(r)
		if r.Data.Int64(0) != 1 {
			return fmt.Errorf("after sc->update: got %d", r.Data.Int64(0))
		}
		p.EndRead(r)
		p.Barrier(sp)
		if p.ID() == 0 {
			// Home writes under the update protocol.
			p.StartWrite(r)
			r.Data.SetInt64(0, 2)
			p.EndWrite(r)
		}
		p.Barrier(sp)
		p.StartRead(r)
		if r.Data.Int64(0) != 2 {
			return fmt.Errorf("under update: got %d", r.Data.Int64(0))
		}
		p.EndRead(r)
		p.Barrier(sp)
		if err := p.ChangeProtocol(sp, "null"); err != nil {
			return err
		}
		// Under null, only the home touches the region.
		if p.ID() == 0 {
			p.StartWrite(r)
			r.Data.SetInt64(0, 3)
			p.EndWrite(r)
		}
		p.GlobalBarrier()
		if err := p.ChangeProtocol(sp, "sc"); err != nil {
			return err
		}
		p.StartRead(r)
		if r.Data.Int64(0) != 3 {
			return fmt.Errorf("after null->sc: got %d", r.Data.Int64(0))
		}
		p.EndRead(r)
		p.GlobalBarrier()
		return nil
	})
}

func TestWaterPhasePattern(t *testing.T) {
	// The Water optimization from the paper: pipeline during the
	// inter-molecular phase, null during the intra-molecular phase,
	// switching each half-iteration.
	const procs, iters = 4, 4
	run(t, procs, "pipeline", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		ids := make([]core.RegionID, procs)
		for root := 0; root < procs; root++ {
			var mine core.RegionID
			if p.ID() == root {
				mine = p.GMalloc(sp, 8)
			}
			ids[root] = p.BroadcastID(root, mine)
		}
		rs := make([]*core.Region, procs)
		for i, id := range ids {
			rs[i] = p.Map(id)
		}
		p.Barrier(sp)
		for it := 0; it < iters; it++ {
			// Inter phase: everyone adds 1 to every region.
			for _, r := range rs {
				p.StartWrite(r)
				r.Data.SetFloat64(0, r.Data.Float64(0)+1)
				p.EndWrite(r)
			}
			p.Barrier(sp)
			// Intra phase under null: each proc scales its own region.
			if err := p.ChangeProtocol(sp, "null"); err != nil {
				return err
			}
			mine := rs[p.ID()]
			p.StartWrite(mine)
			mine.Data.SetFloat64(0, mine.Data.Float64(0)*2)
			p.EndWrite(mine)
			p.GlobalBarrier()
			if err := p.ChangeProtocol(sp, "pipeline"); err != nil {
				return err
			}
		}
		// Value recurrence: v' = (v + procs) * 2, v0 = 0.
		want := 0.0
		for it := 0; it < iters; it++ {
			want = (want + procs) * 2
		}
		mine := rs[p.ID()]
		p.StartRead(mine)
		got := mine.Data.Float64(0)
		p.EndRead(mine)
		if got != want {
			return fmt.Errorf("proc %d: got %v, want %v", p.ID(), got, want)
		}
		p.GlobalBarrier()
		return nil
	})
}

// TestStaticUpdatePushDoesNotAllocate pins the steady-state cost of one
// staticupdate barrier push round at 0 allocations: the home writes its
// regions and its barrier pushes them to the sharer as one aggregate
// frame, which the sharer decodes into its space's scratch records,
// installs and acknowledges once, before the tree barrier. Both
// processors measure the same rounds; AllocsPerRun counts the whole
// process's allocations, the handlers' included.
func TestStaticUpdatePushDoesNotAllocate(t *testing.T) {
	const regions, runs = 8, 100
	run(t, 2, "staticupdate", func(p *core.Proc) error {
		sp := p.DefaultSpace()
		rs := make([]*core.Region, regions)
		for i := range rs {
			var id core.RegionID
			if p.ID() == 0 {
				id = p.GMalloc(sp, 64)
			}
			rs[i] = p.Map(p.BroadcastID(0, id))
		}
		var v int64
		round := func() {
			v++
			for _, r := range rs {
				if p.ID() == 0 {
					p.StartWrite(r)
					r.Data.SetInt64(0, v)
					p.EndWrite(r)
				} else {
					// The first round's reads fetch and register the
					// sharer; every later one hits the pushed copy.
					p.StartRead(r)
					p.EndRead(r)
				}
			}
			p.Barrier(sp)
		}
		for i := 0; i < 16; i++ {
			round() // register the sharer, warm the pool and the scratch
		}
		before := p.Snapshot().Coll.AggFrames
		allocs := testing.AllocsPerRun(runs, round)
		if p.ID() == 0 {
			if n := p.Snapshot().Coll.AggFrames - before; n != runs+1 {
				return fmt.Errorf("%d push frames for %d rounds", n, runs+1)
			}
		} else if got := rs[0].Data.Int64(0); got != v {
			return fmt.Errorf("sharer holds %d after the last push, want %d", got, v)
		}
		if allocs != 0 {
			return fmt.Errorf("proc %d: a staticupdate push round allocates %.1f times, want 0", p.ID(), allocs)
		}
		return nil
	})
}
