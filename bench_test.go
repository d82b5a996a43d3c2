package ace

// The harness for the paper's evaluation artifacts, one testing.B target
// per figure and table, at paper scale on 8 processors:
//
//	go test -run '^$' -bench 'BenchmarkFig7a|BenchmarkFig7b|BenchmarkTable4' -count 3 .
//
// Each sub-benchmark executes one full run (setup plus the timed phase)
// per iteration. Figure 7's rows report ns/iter, the paper's comparable
// time (per iteration for the iterative benchmarks, total otherwise),
// and msgs/op; Table 4's cells report ns/kernel and calls/op. The
// message and call shapes are pinned by count at small scale in
// internal/bench's tests; these benchmarks regenerate the wall-clock
// cells.

import (
	"fmt"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/bench"
	"github.com/acedsm/ace/internal/compiler"
	"github.com/acedsm/ace/internal/table4"
	"github.com/acedsm/ace/internal/trace"
	"github.com/acedsm/ace/proto"
)

// benchProcs is the processor count EXPERIMENTS.md records.
const benchProcs = 8

// BenchmarkFig7a measures every benchmark at paper scale on the CRL
// baseline and the Ace runtime under the sequentially consistent
// protocol (Figure 7a).
func BenchmarkFig7a(b *testing.B) {
	for _, app := range bench.Apps(bench.WorkloadsFor(bench.ScalePaper, benchProcs), false) {
		b.Run(app.Name+"/crl", func(b *testing.B) { benchApp(b, bench.RunCRL, app.Run) })
		b.Run(app.Name+"/ace", func(b *testing.B) { benchApp(b, bench.RunAce, app.Run) })
	}
}

// BenchmarkFig7b measures every benchmark at paper scale on Ace under
// the sequentially consistent protocol and under its
// application-specific protocols (Figure 7b).
func BenchmarkFig7b(b *testing.B) {
	w := bench.WorkloadsFor(bench.ScalePaper, benchProcs)
	custom := bench.Apps(w, true)
	for i, app := range bench.Apps(w, false) {
		b.Run(app.Name+"/sc", func(b *testing.B) { benchApp(b, bench.RunAce, app.Run) })
		b.Run(app.Name+"/custom", func(b *testing.B) { benchApp(b, bench.RunAce, custom[i].Run) })
	}
}

// benchApp runs app once per iteration (setup plus the timed phase) and
// reports the paper's time per run — per iteration for the iterative
// benchmarks, total otherwise (bench.TimeOf) — and the cluster messages
// each run sent.
func benchApp(b *testing.B, run func(int, bench.AppFunc) (apputil.Result, error), app bench.AppFunc) {
	var timed time.Duration
	var msgs uint64
	for i := 0; i < b.N; i++ {
		r, err := run(benchProcs, app)
		if err != nil {
			b.Fatal(err)
		}
		timed += bench.TimeOf(r)
		msgs += r.Msgs
	}
	b.ReportMetric(float64(timed)/float64(b.N), "ns/iter")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

// BenchmarkBracket measures the cost of a StartRead/EndRead hit pair under
// each observability mode: disabled (Trace nil: counted, not timed),
// metrics (also timed) and events (also kept in the ring). mapped is
// disabled with a Map and an Unmap around every pair, em3d's per-edge
// pattern. logged is a StartWrite/EndWrite pair at the home under
// staticupdate, a logged write hit: the close's CAS also keeps the
// region on the space's write log. bare is disabled's pair as
// StartReadBare/EndReadBare, the form the direct-dispatch pass emits for
// a bracket whose partner is a null handler. make bench-allocs requires
// the disabled, metrics, mapped, logged and bare cases to report 0
// allocs/op.
func BenchmarkBracket(b *testing.B) {
	modes := []struct {
		name   string
		cfg    *TraceConfig
		mapped bool
		proto  string // default space's protocol; writes if set
		bare   bool
	}{
		{"disabled", nil, false, "", false},
		{"metrics", &TraceConfig{Metrics: true}, false, "", false},
		{"events", &TraceConfig{Metrics: true, Events: 4096}, false, "", false},
		{"mapped", nil, true, "", false},
		{"logged", nil, false, "staticupdate", false},
		{"bare", nil, false, "", true},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			cl, err := NewCluster(Options{Procs: 1, Trace: m.cfg, DefaultProtocol: m.proto})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			err = cl.Run(func(p *Proc) error {
				id := p.GMalloc(p.DefaultSpace(), 8)
				r := p.Map(id)
				b.ReportAllocs()
				b.ResetTimer()
				if m.proto != "" {
					for i := 0; i < b.N; i++ {
						p.StartWrite(r)
						p.EndWrite(r)
					}
					return nil
				}
				if m.mapped {
					for i := 0; i < b.N; i++ {
						r := p.Map(id)
						p.StartRead(r)
						p.EndRead(r)
						p.Unmap(r)
					}
					return nil
				}
				if m.bare {
					for i := 0; i < b.N; i++ {
						p.StartReadBare(r)
						p.EndReadBare(r)
					}
					return nil
				}
				for i := 0; i < b.N; i++ {
					p.StartRead(r)
					p.EndRead(r)
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkCollectives measures one round of each built-in collective —
// barrier, scalar all-reduce, broadcast from processor 0 — on the
// binomial tree with default options, and one collective life of a
// space as the gateway drives it for a room (SpaceCycle: NewSpace on a
// recycled slot, a GMalloc at the home, FreeSpace), which also reports
// the collective rounds it enters (rounds/op, processor 0's CollStats).
// Every processor runs the same b.N iterations after one untimed warm-up
// (which leaves SpaceCycle a slot to recycle); the timer starts when
// proc 0 leaves the opening barrier and stops when the last processor
// finishes, so ns/op is the cluster's time per iteration. A broadcast
// is a tree round like the others: every processor, the root included,
// waits for the result wave.
func BenchmarkCollectives(b *testing.B) {
	ops := []struct {
		name   string
		fn     func(p *Proc) error
		rounds bool
	}{
		{"GlobalBarrier", func(p *Proc) error { p.GlobalBarrier(); return nil }, false},
		{"AllReduceInt64", func(p *Proc) error { p.AllReduceInt64(OpSum, int64(p.ID())); return nil }, false},
		{"Broadcast", func(p *Proc) error { p.Broadcast(0, []byte("12345678")); return nil }, false},
		{"SpaceCycle", func(p *Proc) error {
			sp, err := p.NewSpace("sc")
			if err != nil {
				return err
			}
			if p.ID() == 0 {
				p.GMalloc(sp, 64)
			}
			return p.FreeSpace(sp)
		}, true},
	}
	for _, procs := range []int{4, 8} {
		for _, op := range ops {
			b.Run(fmt.Sprintf("%s/procs=%d", op.name, procs), func(b *testing.B) {
				cl, err := NewCluster(Options{Procs: procs})
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				var rounds uint64
				err = cl.Run(func(p *Proc) error {
					if err := op.fn(p); err != nil {
						return err
					}
					p.GlobalBarrier()
					var before trace.CollSnapshot
					if p.ID() == 0 {
						if op.rounds {
							before = p.Snapshot().Coll
						}
						b.ResetTimer()
					}
					for i := 0; i < b.N; i++ {
						if err := op.fn(p); err != nil {
							return err
						}
					}
					if p.ID() == 0 && op.rounds {
						after := p.Snapshot().Coll
						rounds = after.Barriers + after.Reduces + after.Bcasts - before.Barriers - before.Reduces - before.Bcasts
					}
					return nil
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				if op.rounds {
					b.ReportMetric(float64(rounds)/float64(b.N), "rounds/op")
				}
			})
		}
	}
}

// BenchmarkTable4 measures every compiler kernel at every optimization
// level plus the hand-written version (Table 4), with the default kernel
// inputs at benchProcs. It reports the timed kernel phase and, for the
// compiled levels, the annotation calls executed on all processors.
func BenchmarkTable4(b *testing.B) {
	cfg := table4.DefaultConfig()
	decls := proto.NewRegistry().Decls()
	for _, k := range table4.Kernels() {
		for _, lvl := range bench.Table4Levels {
			compiled, err := compiler.Compile(k.Prog, decls, lvl)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", k.Name, lvl), func(b *testing.B) {
				benchKernel(b, func() (bench.Table4Result, error) {
					return bench.RunKernelVM(benchProcs, k, cfg, compiled)
				})
			})
		}
		b.Run(k.Name+"/hand", func(b *testing.B) {
			benchKernel(b, func() (bench.Table4Result, error) {
				return bench.RunKernelHand(benchProcs, k, cfg)
			})
		})
	}
}

// benchKernel runs one Table 4 cell per iteration and reports its timed
// kernel phase and annotation calls (zero for the hand version).
func benchKernel(b *testing.B, run func() (bench.Table4Result, error)) {
	var timed time.Duration
	var calls uint64
	for i := 0; i < b.N; i++ {
		r, err := run()
		if err != nil {
			b.Fatal(err)
		}
		timed += r.Time
		calls += r.Calls
	}
	b.ReportMetric(float64(timed)/float64(b.N), "ns/kernel")
	b.ReportMetric(float64(calls)/float64(b.N), "calls/op")
}
