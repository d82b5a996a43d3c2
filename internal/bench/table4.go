package bench

import (
	"fmt"
	"sync"
	"time"

	"github.com/acedsm/ace/internal/compiler"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/ir"
	"github.com/acedsm/ace/internal/table4"
	"github.com/acedsm/ace/internal/vm"
	"github.com/acedsm/ace/proto"
)

// Table4Result holds one (kernel, level) measurement.
type Table4Result struct {
	Kernel   string
	Level    string // "base", "LI", "LI+MC", "LI+MC+DC", "hand"
	Time     time.Duration
	Checksum float64
	// Calls is the number of annotation calls executed across all
	// processors (0 for the hand row, which is not instrumented).
	Calls uint64
}

// Table4Levels are the measured configurations, matching the paper's rows.
var Table4Levels = []compiler.Level{
	compiler.LevelBase, compiler.LevelLI, compiler.LevelMC, compiler.LevelDC,
}

// RunTable4 measures every kernel at every optimization level plus the
// hand-written version, verifying checksum agreement, and returns the
// results grouped by kernel.
func RunTable4(procs int, cfg table4.Config) (map[string][]Table4Result, error) {
	decls := proto.NewRegistry().Decls()
	out := make(map[string][]Table4Result)
	for _, k := range table4.Kernels() {
		var rows []Table4Result
		for _, lvl := range Table4Levels {
			compiled, err := compiler.Compile(k.Prog, decls, lvl)
			if err != nil {
				return nil, fmt.Errorf("table4 %s %s: %w", k.Name, lvl, err)
			}
			res, err := RunKernelVM(procs, k, cfg, compiled)
			if err != nil {
				return nil, fmt.Errorf("table4 %s %s: %w", k.Name, lvl, err)
			}
			res.Level = lvl.String()
			rows = append(rows, res)
		}
		hand, err := RunKernelHand(procs, k, cfg)
		if err != nil {
			return nil, fmt.Errorf("table4 %s hand: %w", k.Name, err)
		}
		hand.Level = "hand"
		rows = append(rows, hand)
		// Every level and the hand version must agree (small relative
		// tolerance: the pipeline protocol combines floating-point
		// contributions in arrival order).
		for _, r := range rows[1:] {
			if !checksumsMatch(rows[0].Checksum, r.Checksum) {
				return nil, fmt.Errorf("table4 %s: checksum mismatch: %s=%v, %s=%v",
					k.Name, rows[0].Level, rows[0].Checksum, r.Level, r.Checksum)
			}
		}
		out[k.Name] = rows
	}
	return out, nil
}

// kernelSpaces creates the runtime spaces a kernel declares, in
// declaration order (collective).
func kernelSpaces(p *core.Proc, k table4.Kernel) (map[int]*core.Space, error) {
	spaces := make(map[int]*core.Space, len(k.Spaces))
	for i, sd := range k.Spaces {
		sp, err := p.NewSpace(sd.Protos[0])
		if err != nil {
			return nil, err
		}
		spaces[i] = sp
	}
	return spaces, nil
}

// RunKernelVM executes a compiled kernel on a fresh cluster.
func RunKernelVM(procs int, k table4.Kernel, cfg table4.Config, compiled *ir.Program) (Table4Result, error) {
	cl, err := core.NewCluster(core.Options{Procs: procs, Registry: proto.NewRegistry()})
	if err != nil {
		return Table4Result{}, err
	}
	defer cl.Close()
	var mu sync.Mutex
	res := Table4Result{Kernel: k.Name}
	err = cl.Run(func(p *core.Proc) error {
		spaces, err := kernelSpaces(p, k)
		if err != nil {
			return err
		}
		args := k.Setup(p, spaces, cfg)
		p.GlobalBarrier()
		m := vm.New(p, compiled, spaces)
		start := time.Now()
		v, err := m.Call("kernel", args...)
		if err != nil {
			return err
		}
		elapsed := p.AllReduceInt64(core.OpMax, int64(time.Since(start)))
		local := v.F
		if v.K == ir.KInt {
			local = float64(v.I)
		}
		sum := p.AllReduceFloat64(core.OpSum, local)
		var calls uint64
		for _, c := range m.Counts {
			calls += c
		}
		totalCalls := p.AllReduceInt64(core.OpSum, int64(calls))
		if p.ID() == 0 {
			mu.Lock()
			res.Time = time.Duration(elapsed)
			res.Checksum = sum
			res.Calls = uint64(totalCalls)
			mu.Unlock()
		}
		return nil
	})
	return res, err
}

// RunKernelHand executes the hand-written version on a fresh cluster.
func RunKernelHand(procs int, k table4.Kernel, cfg table4.Config) (Table4Result, error) {
	cl, err := core.NewCluster(core.Options{Procs: procs, Registry: proto.NewRegistry()})
	if err != nil {
		return Table4Result{}, err
	}
	defer cl.Close()
	var mu sync.Mutex
	res := Table4Result{Kernel: k.Name}
	err = cl.Run(func(p *core.Proc) error {
		spaces, err := kernelSpaces(p, k)
		if err != nil {
			return err
		}
		args := k.Setup(p, spaces, cfg)
		p.GlobalBarrier()
		start := time.Now()
		local := k.Hand(p, spaces, cfg, args)
		elapsed := p.AllReduceInt64(core.OpMax, int64(time.Since(start)))
		sum := p.AllReduceFloat64(core.OpSum, local)
		if p.ID() == 0 {
			mu.Lock()
			res.Time = time.Duration(elapsed)
			res.Checksum = sum
			mu.Unlock()
		}
		return nil
	})
	return res, err
}
