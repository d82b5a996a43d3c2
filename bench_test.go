package ace

// The benchmark harness for the paper's evaluation artifacts, one
// testing.B target per figure and table:
//
//	go test -bench BenchmarkFig7a  -benchmem .   # Figure 7a rows
//	go test -bench BenchmarkFig7b  -benchmem .   # Figure 7b rows
//	go test -bench BenchmarkTable4 -benchmem .   # Table 4 cells
//
// Each sub-benchmark executes one full benchmark run (setup plus the
// timed phase) per iteration; the paper-style tables with iteration-level
// timing, traffic and speedups come from `go run ./cmd/acebench`.

import (
	"fmt"
	"testing"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/apps/barneshut"
	"github.com/acedsm/ace/internal/apps/bsc"
	"github.com/acedsm/ace/internal/apps/em3d"
	"github.com/acedsm/ace/internal/apps/tsp"
	"github.com/acedsm/ace/internal/apps/water"
	"github.com/acedsm/ace/internal/bench"
	"github.com/acedsm/ace/internal/compiler"
	"github.com/acedsm/ace/internal/rtiface"
	"github.com/acedsm/ace/internal/table4"
	"github.com/acedsm/ace/proto"
)

const benchProcs = 8

// benchApps enumerates the five benchmarks with laptop-scale inputs.
// custom=true selects each benchmark's application-specific protocols
// (the Figure 7b configuration).
func benchApps(custom bool) map[string]bench.AppFunc {
	e := em3d.Config{Nodes: 128, Degree: 8, PctRemote: 20, Steps: 5, Seed: 42}
	b := barneshut.Config{Bodies: 128, Steps: 3, Theta: 1.0, Eps: 0.5, DT: 0.025, Seed: 17}
	w := water.Config{Molecules: 48, Steps: 3, DT: 0.001, Seed: 5}
	t := tsp.Config{Cities: 9, Seed: 7}
	c := bsc.Config{Blocks: 8, BlockSize: 12, Bandwidth: 3, Seed: 3}
	if custom {
		e.Proto = "staticupdate"
		b.Proto = "update"
		w.PhaseProtocols = true
		t.CounterProto = "atomic"
		c.Proto = "homewrite"
	}
	return map[string]bench.AppFunc{
		"barnes-hut": func(rt rtiface.RT) (apputil.Result, error) { return barneshut.Run(rt, b) },
		"bsc":        func(rt rtiface.RT) (apputil.Result, error) { return bsc.Run(rt, c) },
		"em3d":       func(rt rtiface.RT) (apputil.Result, error) { return em3d.Run(rt, e) },
		"tsp":        func(rt rtiface.RT) (apputil.Result, error) { return tsp.Run(rt, t) },
		"water":      func(rt rtiface.RT) (apputil.Result, error) { return water.Run(rt, w) },
	}
}

// BenchmarkFig7a measures every benchmark on the CRL baseline and the Ace
// runtime under the sequentially consistent protocol (Figure 7a).
func BenchmarkFig7a(b *testing.B) {
	for name, app := range benchApps(false) {
		b.Run(name+"/crl", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunCRL(benchProcs, app); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/ace", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunAce(benchProcs, app); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7b measures every benchmark on Ace under the sequentially
// consistent protocol and under its application-specific protocols
// (Figure 7b).
func BenchmarkFig7b(b *testing.B) {
	sc := benchApps(false)
	custom := benchApps(true)
	for name := range sc {
		b.Run(name+"/sc", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunAce(benchProcs, sc[name]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/custom", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunAce(benchProcs, custom[name]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBracket measures the cost of a StartRead/EndRead hit pair under
// each observability mode: disabled (Trace nil: counted, not timed),
// metrics (also timed) and events (also kept in the ring). make
// bench-allocs requires the disabled and metrics modes to report 0
// allocs/op.
func BenchmarkBracket(b *testing.B) {
	modes := []struct {
		name string
		cfg  *TraceConfig
	}{
		{"disabled", nil},
		{"metrics", &TraceConfig{Metrics: true}},
		{"events", &TraceConfig{Metrics: true, Events: 4096}},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			cl, err := NewCluster(Options{Procs: 1, Trace: m.cfg})
			if err != nil {
				b.Fatal(err)
			}
			defer cl.Close()
			err = cl.Run(func(p *Proc) error {
				id := p.GMalloc(p.DefaultSpace(), 8)
				r := p.Map(id)
				b.ReportAllocs()
				b.ResetTimer()
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
// binomial tree with default options. Every processor runs the same b.N
// rounds; the timer starts when proc 0 leaves the opening barrier and
// stops when the last processor finishes, so ns/op is the cluster's time
// per round (broadcast rounds pipeline: the root never waits).
func BenchmarkCollectives(b *testing.B) {
	ops := []struct {
		name string
		fn   func(p *Proc)
	}{
		{"GlobalBarrier", func(p *Proc) { p.GlobalBarrier() }},
		{"AllReduceInt64", func(p *Proc) { p.AllReduceInt64(OpSum, int64(p.ID())) }},
		{"Broadcast", func(p *Proc) { p.Broadcast(0, []byte("12345678")) }},
	}
	for _, procs := range []int{4, 8} {
		for _, op := range ops {
			b.Run(fmt.Sprintf("%s/procs=%d", op.name, procs), func(b *testing.B) {
				cl, err := NewCluster(Options{Procs: procs})
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				err = cl.Run(func(p *Proc) error {
					p.GlobalBarrier()
					if p.ID() == 0 {
						b.ResetTimer()
					}
					for i := 0; i < b.N; i++ {
						op.fn(p)
					}
					return nil
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkTable4 measures every compiler kernel at every optimization
// level plus the hand-written version (Table 4).
func BenchmarkTable4(b *testing.B) {
	cfg := table4.Config{
		N: 64, Degree: 5, Steps: 3,
		Blocks: 6, BlockSize: 6, Band: 2,
		Jobs: 12, Cities: 8,
	}
	decls := proto.NewRegistry().Decls()
	for _, k := range table4.Kernels() {
		prog := k.Build(cfg)
		for _, lvl := range bench.Table4Levels {
			compiled, err := compiler.Compile(prog, decls, lvl)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%s", k.Name, lvl), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := bench.RunKernelVM(4, k, cfg, compiled); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		b.Run(k.Name+"/hand", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunKernelHand(4, k, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
