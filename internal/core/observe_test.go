package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/acedsm/ace/internal/trace"
)

// TestMetricsParityWithOpStats runs a workload touching every
// instrumented primitive, untimed and timed, and checks the cluster
// metrics against the exact counts the workload implies (the same in
// both rows: counts do not depend on timing), the per-processor
// snapshots against the cluster aggregate and, when timed, each latency
// histogram against its operation count. (The name survives from the
// removed per-layer counters it was first checked against.)
func TestMetricsParityWithOpStats(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  *trace.Config
	}{
		{"untimed", nil},
		{"timed", &trace.Config{Metrics: true}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkMetricsParity(t, tc.cfg) })
	}
}

func checkMetricsParity(t *testing.T, cfg *trace.Config) {
	cl, err := NewCluster(Options{Procs: 4, Trace: cfg})
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
	// Timed, every operation's latency histogram count matches its op
	// count.
	if cfg != nil {
		for op := trace.Op(0); op < trace.NumOps; op++ {
			if h := m.OpLatency[op]; h.Count != m.Ops.Get(op) {
				t.Errorf("%v: latency count %d != op count %d", op, h.Count, m.Ops.Get(op))
			}
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
}

// TestSnapshotDuringRun reads Cluster.Metrics concurrently with the
// processors' hit and miss brackets, untraced (the always-on counters
// alone) and traced; under -race this checks the any-goroutine scrape
// against the bracket hot paths and the application threads' folds.
// (Proc.Snapshot folds, so it belongs to the application thread.)
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
			// Mostly hits, counted in the threads' tallies: exact once
			// Run has returned.
			if got := m.Ops.Get(trace.OpEndRead); got != 2*procs*rounds {
				t.Errorf("end_read = %d, want %d", got, 2*procs*rounds)
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

// TestMetricsFreshDuringHits runs many times foldEvery hit brackets with
// no slow path between them while another goroutine scrapes
// Cluster.Metrics. The application thread tallies those hits privately,
// so a scrape may lag, but never by foldEvery operations or more, and
// the scraped counts never go backwards. After Run they are exact.
func TestMetricsFreshDuringHits(t *testing.T) {
	const pairs = 20*foldEvery + 100 // not a whole number of folds: Run must fold the rest
	cl, err := NewCluster(Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	total := func(m trace.Metrics) (ops, fast uint64) {
		return m.Spaces[0].Ops.Total(), m.Spaces[0].FastOps.Total()
	}
	var base, baseFast uint64
	var done atomic.Uint64 // bracket pairs the thread has completed
	errc := make(chan error, 1)
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	err = cl.Run(func(p *Proc) error {
		r := p.Map(p.GMalloc(p.DefaultSpace(), 8))
		p.StartRead(r) // the first bracket may take the slow path
		p.EndRead(r)
		base, baseFast = total(p.Snapshot())
		scraper.Add(1)
		go func() {
			defer scraper.Done()
			var last uint64
			for {
				select {
				case <-stop:
					errc <- nil
					return
				default:
				}
				lo := done.Load()
				got, _ := total(cl.Metrics())
				hi := done.Load()
				switch {
				case got < last:
					errc <- fmt.Errorf("scraped ops went back from %d to %d", last, got)
					return
				case got+foldEvery <= base+2*lo:
					errc <- fmt.Errorf("scraped %d ops after %d completed: %d or more behind", got-base, 2*lo, foldEvery)
					return
				case got > base+2*(hi+1):
					errc <- fmt.Errorf("scraped %d ops, only %d started", got-base, 2*(hi+1))
					return
				}
				last = got
			}
		}()
		for i := uint64(1); i <= pairs; i++ {
			p.StartRead(r)
			p.EndRead(r)
			done.Store(i)
		}
		return nil
	})
	close(stop)
	scraper.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	ops, fast := total(cl.Metrics())
	if ops != base+2*pairs || fast != baseFast+2*pairs {
		t.Fatalf("after Run: %d ops, %d fast; want %d and %d", ops-base, fast-baseFast, 2*pairs, 2*pairs)
	}
}
