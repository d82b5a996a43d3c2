package core

import (
	"fmt"
	"sync"
	"testing"

	"github.com/acedsm/ace/internal/trace"
)

// TestMetricsParityWithOpStats runs a workload touching every
// instrumented primitive and checks the new per-space metrics agree with
// the legacy OpStats counters on the same run.
func TestMetricsParityWithOpStats(t *testing.T) {
	cl, err := NewCluster(Options{Procs: 4, Trace: &trace.Config{Metrics: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *Proc) error {
		sp, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		var id RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 16)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		for i := 0; i < 10; i++ {
			p.Lock(r)
			p.StartWrite(r)
			r.Data.SetInt64(0, r.Data.Int64(0)+1)
			p.EndWrite(r)
			p.Unlock(r)
		}
		p.Barrier(sp)
		p.StartRead(r)
		got := r.Data.Int64(0)
		p.EndRead(r)
		if got != 40 {
			return fmt.Errorf("count = %d, want 40", got)
		}
		if err := p.ChangeProtocol(sp, "sc"); err != nil {
			return err
		}
		p.Unmap(r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := cl.Metrics()
	// Exact counts from the workload: 4 procs × 10 locked increments.
	wants := []struct {
		op   trace.Op
		want uint64
	}{
		{trace.OpGMalloc, 1},
		{trace.OpMap, 4},
		{trace.OpUnmap, 4},
		{trace.OpStartWrite, 40},
		{trace.OpEndWrite, 40},
		{trace.OpLock, 40},
		{trace.OpUnlock, 40},
		{trace.OpStartRead, 4},
		{trace.OpEndRead, 4},
	}
	for _, pr := range wants {
		if got := m.Ops.Get(pr.op); got != pr.want {
			t.Errorf("%v: metrics %d != want %d", pr.op, got, pr.want)
		}
	}
	// Every operation's latency histogram count matches its op count.
	for op := trace.Op(0); op < trace.NumOps; op++ {
		if h := m.OpLatency[op]; h.Count != m.Ops.Get(op) {
			t.Errorf("%v: latency count %d != op count %d", op, h.Count, m.Ops.Get(op))
		}
	}
	// Per-proc snapshots sum to the cluster aggregate.
	var perProc uint64
	for _, p := range cl.procs {
		perProc += p.Snapshot().Ops.Total()
	}
	if perProc != m.Ops.Total() {
		t.Errorf("per-proc sum %d != cluster total %d", perProc, m.Ops.Total())
	}
	// Spaces: default space 0 plus the collectively created space 1.
	if len(m.Spaces) != 2 || m.Spaces[1].Protocol != "sc" {
		t.Errorf("spaces: %+v", m.Spaces)
	}
	if m.Net.MsgsSent == 0 || m.Net.MsgsSent != m.Net.MsgsRecv {
		t.Errorf("net totals inconsistent: %+v", m.Net)
	}
	if m.Net.Deliver.Count == 0 {
		t.Error("no send→deliver latency samples with metrics enabled")
	}
}

// TestSnapshotDuringRun reads Cluster.Metrics and every Proc.Snapshot
// concurrently with the processors' hit and miss brackets, untraced (the
// always-on counters alone) and traced; under -race this checks both
// snapshot paths against the bracket hot paths.
func TestSnapshotDuringRun(t *testing.T) {
	const procs, rounds = 4, 200
	for _, tc := range []struct {
		name string
		cfg  *trace.Config
	}{
		{"untraced", nil},
		{"traced", &trace.Config{Metrics: true, Events: 128}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := NewCluster(Options{Procs: procs, Trace: tc.cfg})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			stop := make(chan struct{})
			var reader sync.WaitGroup
			reader.Add(1)
			go func() {
				defer reader.Done()
				for {
					select {
					case <-stop:
						return
					default:
						_ = cl.Metrics()
						for _, p := range cl.Local() {
							_ = p.Snapshot()
						}
						_ = cl.TraceEvents()
					}
				}
			}()
			err = cl.Run(func(p *Proc) error {
				mine := p.Map(p.GMalloc(p.DefaultSpace(), 8))
				var id RegionID
				if p.ID() == 0 {
					id = p.GMalloc(p.DefaultSpace(), 8)
				}
				id = p.BroadcastID(0, id)
				r := p.Map(id)
				for i := 0; i < rounds; i++ {
					p.StartWrite(r) // contended: misses
					p.EndWrite(r)
					p.StartRead(r)
					p.EndRead(r)
					p.StartRead(mine) // private home region: hits
					p.EndRead(mine)
				}
				p.GlobalBarrier()
				return nil
			})
			close(stop)
			reader.Wait()
			if err != nil {
				t.Fatal(err)
			}
			m := cl.Metrics()
			if got := m.Ops.Get(trace.OpStartWrite); got != procs*rounds {
				t.Errorf("start_write = %d, want %d", got, procs*rounds)
			}
			// Only the first bracket on each private region misses the
			// fast path.
			if got := m.FastOps.Get(trace.OpStartRead); got < procs*(rounds-1) {
				t.Errorf("fast start_read = %d, want >= %d", got, procs*(rounds-1))
			}
			if m.Spaces[0].RemoteWriteMisses == 0 {
				t.Error("no remote write misses counted")
			}
			if tc.cfg != nil && len(cl.TraceEvents()) == 0 {
				t.Error("no events retained")
			}
		})
	}
}
