package proto_test

import (
	"testing"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/trace"
	"github.com/acedsm/ace/proto"
)

// runAdaptive executes an SPMD body on an adaptive cluster and returns
// the final protocol name of the space the body worked on (read after a
// closing barrier, so all processors agree) plus the cluster metrics.
// The controller's two-barrier epoch covers one iteration of a body with
// a write phase and a read phase separated by barriers.
func runAdaptive(t *testing.T, procs int, body func(p *core.Proc, sp *core.Space)) (string, trace.Metrics) {
	t.Helper()
	cl, err := core.NewCluster(core.Options{
		Procs:    procs,
		Registry: proto.NewRegistry(),
		Adapt:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	final := make([]string, procs)
	err = cl.Run(func(p *core.Proc) error {
		sp, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		body(p, sp)
		p.GlobalBarrier()
		final[p.ID()] = sp.ProtoName
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < procs; i++ {
		if final[i] != final[0] {
			t.Fatalf("processors disagree on final protocol: %v", final)
		}
	}
	return final[0], cl.Metrics()
}

// mkRegions allocates one region per processor (homed round-robin) and
// maps them everywhere.
func mkRegions(p *core.Proc, sp *core.Space, size int) []*core.Region {
	ids := make([]core.RegionID, p.Procs())
	for home := 0; home < p.Procs(); home++ {
		var rid core.RegionID
		if p.ID() == home {
			rid = p.GMalloc(sp, size)
		}
		ids[home] = p.BroadcastID(home, rid)
	}
	regs := make([]*core.Region, len(ids))
	for i, rid := range ids {
		regs[i] = p.Map(rid)
	}
	return regs
}

// TestAdaptConvergesProducerConsumer: every processor writes its own
// region and reads everyone else's, read-dominated. The controller must
// classify producer-consumer and install staticupdate, and the data must
// stay coherent across the switch.
func TestAdaptConvergesProducerConsumer(t *testing.T) {
	const epochs = 8
	name, m := runAdaptive(t, 4, func(p *core.Proc, sp *core.Space) {
		regs := mkRegions(p, sp, 64)
		mine := regs[p.ID()]
		for e := 0; e < epochs; e++ {
			p.StartWrite(mine)
			mine.Data.SetInt64(0, int64(1000*p.ID()+e))
			p.EndWrite(mine)
			p.Barrier(sp)
			for q, r := range regs {
				p.StartRead(r)
				got := r.Data.Int64(0)
				p.EndRead(r)
				if got != int64(1000*q+e) {
					panic("stale read after adaptation")
				}
			}
			p.Barrier(sp)
		}
	})
	if name != "staticupdate" {
		t.Fatalf("converged to %q, want staticupdate", name)
	}
	assertAdaptStats(t, m, 1, "staticupdate", core.PatternProducerConsumer)
}

// TestAdaptConvergesSingleWriter: one processor writes regions homed on
// the others (so writes are not home-confined), everyone reads. The
// controller must pick the dynamic update protocol.
func TestAdaptConvergesSingleWriter(t *testing.T) {
	const epochs = 10
	name, m := runAdaptive(t, 4, func(p *core.Proc, sp *core.Space) {
		regs := mkRegions(p, sp, 64)
		for e := 0; e < epochs; e++ {
			if p.ID() == 0 {
				for _, r := range regs {
					p.StartWrite(r)
					r.Data.SetInt64(0, int64(e))
					p.EndWrite(r)
				}
			}
			p.Barrier(sp)
			for _, r := range regs {
				p.StartRead(r)
				got := r.Data.Int64(0)
				p.EndRead(r)
				if got != int64(e) {
					panic("stale read after adaptation")
				}
			}
			p.Barrier(sp)
		}
	})
	if name != "update" {
		t.Fatalf("converged to %q, want update", name)
	}
	assertAdaptStats(t, m, 1, "update", core.PatternSingleWriter)
}

// TestAdaptConvergesMigratory: lock-mediated read-modify-write bursts on
// a shared counter. Locks plus writes classify migratory.
func TestAdaptConvergesMigratory(t *testing.T) {
	const epochs = 8
	name, m := runAdaptive(t, 4, func(p *core.Proc, sp *core.Space) {
		regs := mkRegions(p, sp, 64)
		ctr := regs[0]
		for e := 0; e < epochs; e++ {
			p.Lock(ctr)
			p.StartWrite(ctr)
			ctr.Data.SetInt64(0, ctr.Data.Int64(0)+1)
			p.EndWrite(ctr)
			p.Unlock(ctr)
			p.Barrier(sp)
		}
		p.StartRead(ctr)
		total := ctr.Data.Int64(0)
		p.EndRead(ctr)
		if total != int64(epochs*p.Procs()) {
			panic("lost increments after adaptation")
		}
	})
	if name != "migratory" {
		t.Fatalf("converged to %q, want migratory", name)
	}
	assertAdaptStats(t, m, 1, "migratory", core.PatternMigratory)
}

// TestAdaptConvergesHomeWrite: write-dominated home-confined updates
// with occasional remote reads. The pull side of the barrier family
// (homewrite) must win over the push side.
func TestAdaptConvergesHomeWrite(t *testing.T) {
	const epochs = 8
	name, m := runAdaptive(t, 4, func(p *core.Proc, sp *core.Space) {
		regs := mkRegions(p, sp, 64)
		mine := regs[p.ID()]
		next := regs[(p.ID()+1)%p.Procs()]
		for e := 0; e < epochs; e++ {
			for w := 0; w < 4; w++ {
				p.StartWrite(mine)
				mine.Data.SetInt64(0, int64(1000*p.ID()+e))
				p.EndWrite(mine)
			}
			p.Barrier(sp)
			p.StartRead(next)
			got := next.Data.Int64(0)
			p.EndRead(next)
			if got != int64(1000*((p.ID()+1)%p.Procs())+e) {
				panic("stale read after adaptation")
			}
			p.Barrier(sp)
		}
	})
	if name != "homewrite" {
		t.Fatalf("converged to %q, want homewrite", name)
	}
	assertAdaptStats(t, m, 1, "homewrite", core.PatternHomeWrite)
}

// TestAdaptStaysOnSCWithoutSignal: a quiet space (no bracket traffic)
// never leaves sc, however many barriers pass.
func TestAdaptStaysOnSCWithoutSignal(t *testing.T) {
	name, m := runAdaptive(t, 2, func(p *core.Proc, sp *core.Space) {
		for e := 0; e < 10; e++ {
			p.Barrier(sp)
		}
	})
	if name != "sc" {
		t.Fatalf("quiet space switched to %q", name)
	}
	for _, a := range m.Adapt {
		if a.Switches != 0 {
			t.Fatalf("quiet space recorded %d switches", a.Switches)
		}
	}
}

// TestAdaptIgnoresOptedOutProtocol: a space manually running a protocol
// that names no pattern (pipeline) is never switched away, even
// under a pattern that would otherwise retarget it.
func TestAdaptIgnoresOptedOutProtocol(t *testing.T) {
	cl, err := core.NewCluster(core.Options{
		Procs:    2,
		Registry: proto.NewRegistry(),
		Adapt:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *core.Proc) error {
		sp, err := p.NewSpace("pipeline")
		if err != nil {
			return err
		}
		regs := mkRegions(p, sp, 64)
		mine := regs[p.ID()]
		for e := 0; e < 8; e++ {
			p.StartWrite(mine)
			mine.Data.SetFloat64(0, float64(e))
			p.EndWrite(mine)
			p.Barrier(sp)
		}
		if sp.ProtoName != "pipeline" {
			t.Errorf("opted-out protocol switched to %q", sp.ProtoName)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// assertAdaptStats checks the controller surfaced its state for the
// adapted space: at least minSwitches switches, the expected final
// protocol and pattern.
func assertAdaptStats(t *testing.T, m trace.Metrics, minSwitches uint64, proto, pattern string) {
	t.Helper()
	for _, a := range m.Adapt {
		if a.Protocol == proto {
			if a.Switches < minSwitches {
				t.Fatalf("AdaptStats %+v: want at least %d switches", a, minSwitches)
			}
			if a.Pattern != pattern {
				t.Fatalf("AdaptStats %+v: want pattern %q", a, pattern)
			}
			if a.LastSwitchEpoch == 0 || a.Epochs < a.LastSwitchEpoch {
				t.Fatalf("AdaptStats %+v: inconsistent epochs", a)
			}
			return
		}
	}
	t.Fatalf("no AdaptStats entry with protocol %q in %+v", proto, m.Adapt)
}
