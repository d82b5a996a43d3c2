package main

import (
	"fmt"
	"sync"
	"time"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/apps/em3d"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/rtiface"
	"github.com/acedsm/ace/internal/tcpnet"
	"github.com/acedsm/ace/internal/trace"
	"github.com/acedsm/ace/proto"
)

// em3dProcs is the number of logical processors of every DSM workload.
const em3dProcs = 4

// checkSteps is the length of the correctness pre-pass. EM3D's checksum
// decays towards zero (denormal by 400 steps, exactly 0 by about 450), so
// the comparison is made early, where the values still tell protocols
// apart, and every checksum is also required to be non-zero.
const checkSteps = 10

// em3dConfig is the paper's input (1000 E and 1000 H nodes, degree 10,
// 20 % remote edges); the loopback-TCP workload runs a quarter of the steps
// because a step there costs about nine times as much.
func em3dConfig(o options, protoName string, tcp bool) em3d.Config {
	cfg := em3d.Config{Nodes: 1000, Degree: 10, PctRemote: 20, Steps: 100, Seed: o.seed, Proto: protoName}
	if tcp {
		cfg.Steps = 25
	}
	if o.smoke {
		cfg.Nodes, cfg.Steps = 200, 6
	}
	return cfg
}

// runEM3D runs one EM3D program on a fresh cluster and returns processor
// 0's result, the cluster's metrics and the wall time of the whole run.
func runEM3D(cfg em3d.Config, tcp, traced bool) (apputil.Result, trace.Metrics, time.Duration, error) {
	start := time.Now()
	opts := core.Options{Procs: em3dProcs, Registry: proto.NewRegistry()} // nil Transport: the channel network
	if tcp {
		opts.Transport = tcpnet.Loopback(em3dProcs)
	}
	if traced {
		opts.Trace = &trace.Config{Metrics: true}
	}
	cl, err := core.NewCluster(opts)
	if err != nil {
		return apputil.Result{}, trace.Metrics{}, 0, err
	}
	var mu sync.Mutex
	var res apputil.Result
	err = cl.Run(func(p *core.Proc) error {
		r, err := em3d.Run(rtiface.NewAce(p), cfg)
		if err != nil {
			return fmt.Errorf("proc %d: %w", p.ID(), err)
		}
		if p.ID() == 0 {
			mu.Lock()
			res = r
			mu.Unlock()
		}
		return nil
	})
	m := cl.Metrics()
	if cerr := cl.Close(); err == nil {
		err = cerr
	}
	return res, m, time.Since(start), err
}

func em3dWorkload(name, protoName string, tcp bool) workload {
	// want is the checksum every timed repetition must return: the first
	// repetition's, which must be non-zero.
	var want float64
	return workload{
		name: name,
		check: func(o options) error {
			cfg := em3dConfig(o, protoName, tcp)
			cfg.Steps = checkSteps
			got, _, _, err := runEM3D(cfg, tcp, false)
			if err != nil {
				return err
			}
			cfg.Proto = ""
			ref, _, _, err := runEM3D(cfg, false, false)
			if err != nil {
				return err
			}
			if got.Checksum == 0 || got.Checksum != ref.Checksum {
				return fmt.Errorf("checksum after %d steps is %v, the sc/chan reference gives %v; want equal and non-zero",
					checkSteps, got.Checksum, ref.Checksum)
			}
			return nil
		},
		rep: func(o options, _ time.Duration, traced bool, sl *spanLog, parent int) (repResult, error) {
			cfg := em3dConfig(o, protoName, tcp)
			runSpan := sl.begin("em3d.Run", parent)
			res, m, wall, err := runEM3D(cfg, tcp, traced)
			sl.endCalls(runSpan, int64(cfg.Steps))
			if err != nil {
				return repResult{}, err
			}
			if want == 0 {
				want = res.Checksum
			}
			if res.Checksum == 0 || res.Checksum != want {
				return repResult{}, fmt.Errorf("checksum %v after %d steps, the first repetition gave %v; want equal and non-zero",
					res.Checksum, cfg.Steps, want)
			}
			steps := float64(cfg.Steps)
			var misses uint64
			for _, sp := range m.Spaces {
				misses += sp.RemoteReadMisses + sp.RemoteWriteMisses
			}
			brackets := m.Ops.Get(trace.OpStartRead) + m.Ops.Get(trace.OpStartWrite)
			fast := m.FastOps.Get(trace.OpStartRead) + m.FastOps.Get(trace.OpStartWrite)
			r := repResult{
				setup:  wall - res.Total,
				window: res.Total,
				units:  int64(res.Iters),
				// em3d's own timer keeps only the total, so the median and
				// the tail of a step are both its mean.
				latP50:  float64(res.TimePerIter) / 1e3,
				latP99:  float64(res.TimePerIter) / 1e3,
				samples: res.Iters,
				sent:    int64(res.Iters),
				counters: map[string]float64{
					"proto.msgs_per_step":        float64(m.Net.MsgsSent) / steps,
					"proto.remote_miss_per_step": float64(misses) / steps,
					"core.brackets_per_step":     float64(brackets) / steps,
				},
			}
			if brackets > 0 {
				r.counters["core.fast_hit_ratio"] = float64(fast) / float64(brackets)
			}
			return r, nil
		},
	}
}
