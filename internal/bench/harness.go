// Package bench runs the five benchmarks on the Ace and CRL runtimes
// under the protocol configurations of the paper's evaluation, and the
// compiler kernels at every optimization level. Its tests pin the shapes
// of Figure 7a, Figure 7b and Table 4 by message and annotation-call
// count at a fixed scale; the root package's BenchmarkFig7a,
// BenchmarkFig7b and BenchmarkTable4 regenerate their wall-clock cells
// at paper scale.
package bench

import (
	"fmt"
	"sync"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/crl"
	"github.com/acedsm/ace/internal/rtiface"
	"github.com/acedsm/ace/internal/trace"
	"github.com/acedsm/ace/proto"
)

// AppFunc runs one benchmark on a runtime-neutral interface.
type AppFunc func(rt rtiface.RT) (apputil.Result, error)

// Observed is the outcome of an instrumented run: the benchmark result
// plus the cluster-wide observability snapshot.
type Observed struct {
	Result  apputil.Result
	Metrics trace.Metrics
}

// RunAce executes app on a fresh Ace cluster of procs processors and
// returns processor 0's result with cluster traffic totals filled in.
func RunAce(procs int, app AppFunc) (apputil.Result, error) {
	o, err := RunAceObserved(procs, app)
	return o.Result, err
}

// RunAceObserved executes app on a fresh Ace cluster and returns
// processor 0's result together with the cluster metrics (the always-on
// counters; latencies stay untimed).
func RunAceObserved(procs int, app AppFunc) (Observed, error) {
	return runAceCluster(core.Options{Procs: procs, Registry: proto.NewRegistry()}, app)
}

// RunAceAdaptive executes app on a fresh Ace cluster with the online
// protocol controller enabled (which forces metrics on, so the returned
// snapshot carries Metrics.Adapt — the controller's switching record).
func RunAceAdaptive(procs int, app AppFunc, cfg *core.AdaptConfig) (Observed, error) {
	return runAceCluster(core.Options{Procs: procs, Registry: proto.NewRegistry(), Adapt: cfg}, app)
}

func runAceCluster(opts core.Options, app AppFunc) (Observed, error) {
	cl, err := core.NewCluster(opts)
	if err != nil {
		return Observed{}, err
	}
	defer cl.Close()
	var mu sync.Mutex
	var o Observed
	err = cl.Run(func(p *core.Proc) error {
		r, err := app(rtiface.NewAce(p))
		if err != nil {
			return fmt.Errorf("proc %d: %w", p.ID(), err)
		}
		if p.ID() == 0 {
			mu.Lock()
			o.Result = r
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return o, err
	}
	o.Metrics = cl.Metrics()
	o.Result.Msgs = o.Metrics.Net.MsgsSent
	o.Result.Bytes = o.Metrics.Net.BytesSent
	return o, nil
}

// RunCRL executes app on a fresh CRL cluster of procs processors.
func RunCRL(procs int, app AppFunc) (apputil.Result, error) {
	cl, err := crl.NewCluster(crl.Options{Procs: procs})
	if err != nil {
		return apputil.Result{}, err
	}
	defer cl.Close()
	var mu sync.Mutex
	var res apputil.Result
	err = cl.Run(func(p *crl.Proc) error {
		r, err := app(rtiface.NewCRL(p))
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
	if err != nil {
		return res, err
	}
	m := cl.Metrics()
	res.Msgs = m.Net.MsgsSent
	res.Bytes = m.Net.BytesSent
	return res, nil
}
