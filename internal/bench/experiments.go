package bench

import (
	"math"
	"time"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/apps/barneshut"
	"github.com/acedsm/ace/internal/apps/bsc"
	"github.com/acedsm/ace/internal/apps/em3d"
	"github.com/acedsm/ace/internal/apps/tsp"
	"github.com/acedsm/ace/internal/apps/water"
	"github.com/acedsm/ace/internal/rtiface"
)

// Scale selects workload sizes. "small" is the scale the count gates
// pin; "paper" approaches the paper's inputs (Table 3) and is what the
// root benchmarks run.
type Scale string

// The available scales.
const (
	ScaleSmall Scale = "small"
	ScalePaper Scale = "paper"
)

// Workloads holds the per-benchmark configurations for one experiment run.
type Workloads struct {
	Procs     int
	EM3D      em3d.Config
	TSP       tsp.Config
	BarnesHut barneshut.Config
	Water     water.Config
	BSC       bsc.Config
}

// WorkloadsFor returns the benchmark configurations at the given scale.
func WorkloadsFor(scale Scale, procs int) Workloads {
	w := Workloads{
		Procs:     procs,
		EM3D:      em3d.DefaultConfig(),
		TSP:       tsp.DefaultConfig(),
		BarnesHut: barneshut.DefaultConfig(),
		Water:     water.DefaultConfig(),
		BSC:       bsc.DefaultConfig(),
	}
	switch scale {
	case ScaleSmall:
		w.EM3D.Nodes, w.EM3D.Steps = 64, 4
		w.TSP.Cities = 8
		w.BarnesHut.Bodies, w.BarnesHut.Steps = 64, 3
		w.Water.Molecules, w.Water.Steps = 24, 3
		w.BSC.Blocks, w.BSC.BlockSize = 8, 8
	case ScalePaper:
		// Table 3 inputs, scaled where wall-clock demands: EM3D exact
		// (1000+1000 vertices, 20% remote, degree 10, 100 steps), TSP 12
		// cities exact, Water 512 molecules / 3 steps exact; Barnes-Hut
		// reduced from 16384 to 2048 bodies (tree build is O(N log N)
		// per processor here since the tree is replicated).
		w.EM3D.Nodes, w.EM3D.Steps = 1000, 100
		w.TSP.Cities = 12
		w.BarnesHut.Bodies, w.BarnesHut.Steps = 2048, 4
		w.Water.Molecules, w.Water.Steps = 512, 3
		w.BSC.Blocks, w.BSC.BlockSize, w.BSC.Bandwidth = 24, 24, 6
	}
	return w
}

// NamedApp is one of the five benchmarks bound to a workload set.
type NamedApp struct {
	Name string
	Run  AppFunc
}

// Apps returns the five benchmarks of the paper's evaluation, in name
// order. custom selects each benchmark's application-specific protocols
// (the Figure 7b configuration) instead of sequential consistency.
func Apps(w Workloads, custom bool) []NamedApp {
	e, t, b, wa, c := w.EM3D, w.TSP, w.BarnesHut, w.Water, w.BSC
	if custom {
		e.Proto = "staticupdate"
		t.CounterProto = "atomic"
		b.Proto = "update"
		wa.PhaseProtocols = true
		c.Proto = "homewrite"
	}
	return []NamedApp{
		{"barnes-hut", func(rt rtiface.RT) (apputil.Result, error) { return barneshut.Run(rt, b) }},
		{"bsc", func(rt rtiface.RT) (apputil.Result, error) { return bsc.Run(rt, c) }},
		{"em3d", func(rt rtiface.RT) (apputil.Result, error) { return em3d.Run(rt, e) }},
		{"tsp", func(rt rtiface.RT) (apputil.Result, error) { return tsp.Run(rt, t) }},
		{"water", func(rt rtiface.RT) (apputil.Result, error) { return water.Run(rt, wa) }},
	}
}

// TimeOf returns the comparable time for a result: per-iteration time for
// the iterative benchmarks, total time otherwise (Section 5.1).
func TimeOf(r apputil.Result) time.Duration {
	if r.TimePerIter > 0 {
		return r.TimePerIter
	}
	return r.Total
}

// checksumsMatch compares checksums with a relative tolerance: protocols
// may legitimately reorder floating-point accumulation (pipeline combines
// at the home in arrival order), so bit-exact equality is not required,
// but agreement to 1e-6 relative is.
func checksumsMatch(a, b float64) bool {
	mag := max(math.Abs(a), math.Abs(b), 1e-9)
	return math.Abs(a-b)/mag < 1e-6
}
