// Package em3d implements the EM3D benchmark (Culler et al., Split-C):
// propagation of electromagnetic waves through a bipartite graph of E and
// H nodes. In each time step, new E values are a weighted sum of
// neighboring H nodes, then new H values of neighboring E nodes — the
// static producer-consumer pattern that motivates update protocols
// (Sections 3.3 and 5.2 of the paper).
//
// Each node's value is one shared region (fine granularity); the graph
// structure and edge weights are deterministic from the seed and
// replicated, as in the Split-C original where edges are processor-local.
package em3d

import (
	"fmt"
	"time"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/rtiface"
)

// Config parameterizes the benchmark. The paper's input was 1000 E and
// 1000 H vertices, 20% remote edges, degree 10, 100 steps.
type Config struct {
	Nodes     int // E nodes and H nodes, each
	Degree    int
	PctRemote int // percentage of edges crossing processors
	Steps     int
	Seed      int64

	// Proto, if non-empty, is the protocol for the two value spaces
	// ("update", "staticupdate"). Empty runs on the default space. The
	// program follows Figure 2: spaces start sequentially consistent and
	// switch via ChangeProtocol after graph construction.
	Proto string
}

// DefaultConfig returns a laptop-scale version of the paper's input.
func DefaultConfig() Config {
	return Config{Nodes: 256, Degree: 10, PctRemote: 20, Steps: 10, Seed: 42}
}

// node is one processor's view of a graph node it owns. Accesses map and
// unmap regions around each use, the canonical region-programming style
// (the table-4 "hand-optimized" variants hoist the maps; see package
// table4 in internal/bench).
type node struct {
	own       core.RegionID
	neighbors []core.RegionID // regions of the opposite class
	weights   []float64
}

// Run executes EM3D on rt.
func Run(rt rtiface.RT, cfg Config) (apputil.Result, error) {
	res := apputil.Result{Name: "em3d", Runtime: rt.Name(), Protocols: protoLabel(cfg.Proto)}
	if cfg.Nodes < rt.Procs() || cfg.Degree < 1 || cfg.Steps < 2 {
		return res, fmt.Errorf("em3d: bad config %+v", cfg)
	}

	// Spaces: eval and hval, as in Figure 2. With no custom protocol the
	// default space serves both.
	var eSpace, hSpace rtiface.SpaceID
	srt, hasSpaces := rt.(rtiface.SpaceRT)
	useSpaces := cfg.Proto != "" && hasSpaces
	if cfg.Proto != "" && !hasSpaces {
		return res, fmt.Errorf("em3d: runtime %s has no spaces for protocol %q", rt.Name(), cfg.Proto)
	}
	if useSpaces {
		var err error
		if eSpace, err = srt.NewSpace("sc"); err != nil {
			return res, err
		}
		if hSpace, err = srt.NewSpace("sc"); err != nil {
			return res, err
		}
	}

	alloc := func(space rtiface.SpaceID) core.RegionID {
		if useSpaces {
			return srt.MallocIn(space, 8)
		}
		return rt.Malloc(8)
	}

	// Allocate owned node values and learn everyone's ids.
	lo, hi := apputil.Block(cfg.Nodes, rt.Procs(), rt.ID())
	mineE := make([]core.RegionID, 0, hi-lo)
	mineH := make([]core.RegionID, 0, hi-lo)
	for i := lo; i < hi; i++ {
		mineE = append(mineE, alloc(eSpace))
		mineH = append(mineH, alloc(hSpace))
	}
	eIDs := gatherIDs(rt, cfg.Nodes, mineE)
	hIDs := gatherIDs(rt, cfg.Nodes, mineH)

	// Build owned nodes with deterministic neighbor lists and initialize
	// values.
	eNodes := buildNodes(cfg, lo, hi, eIDs, hIDs, 0, rt)
	hNodes := buildNodes(cfg, lo, hi, hIDs, eIDs, 1, rt)
	for i, n := range eNodes {
		h := rt.Map(n.own)
		rt.StartWrite(h)
		h.Data().SetFloat64(0, float64(lo+i)/float64(cfg.Nodes))
		rt.EndWrite(h)
		rt.Unmap(h)
	}
	for i, n := range hNodes {
		h := rt.Map(n.own)
		rt.StartWrite(h)
		h.Data().SetFloat64(0, float64(lo+i+cfg.Nodes)/float64(cfg.Nodes))
		rt.EndWrite(h)
		rt.Unmap(h)
	}
	rt.Barrier()

	// Switch to the custom protocol after construction (Figure 2, lines
	// 8–9).
	if useSpaces && cfg.Proto != "sc" {
		if err := srt.ChangeProtocol(eSpace, cfg.Proto); err != nil {
			return res, err
		}
		if err := srt.ChangeProtocol(hSpace, cfg.Proto); err != nil {
			return res, err
		}
	}

	barrier := func(space rtiface.SpaceID) {
		if useSpaces {
			srt.BarrierSpace(space)
		} else {
			rt.Barrier()
		}
	}

	// Main loop (Figure 2, lines 12–17): new E from H, barrier on the
	// written space, new H from E, barrier.
	var tm apputil.Timer
	for step := 0; step < cfg.Steps; step++ {
		tm.StartIter()
		computePhase(rt, eNodes)
		barrier(eSpace)
		computePhase(rt, hNodes)
		barrier(hSpace)
		tm.EndIter()
	}

	// Checksum across all values.
	sum := 0.0
	for _, n := range append(append([]node{}, eNodes...), hNodes...) {
		h := rt.Map(n.own)
		rt.StartRead(h)
		sum += h.Data().Float64(0)
		rt.EndRead(h)
		rt.Unmap(h)
	}
	res.Checksum = rt.AllReduceFloat64(core.OpSum, sum)

	iters, total := tm.Timed()
	res.Iters = iters
	res.Total = time.Duration(rt.AllReduceInt64(core.OpMax, int64(total)))
	if iters > 0 {
		res.TimePerIter = res.Total / time.Duration(iters)
	}
	rt.Barrier()
	return res, nil
}

// computePhase recomputes every owned node as the weighted sum of its
// neighbors' values.
func computePhase(rt rtiface.RT, nodes []node) {
	for _, n := range nodes {
		acc := 0.0
		for j, nb := range n.neighbors {
			h := rt.Map(nb)
			rt.StartRead(h)
			acc += n.weights[j] * h.Data().Float64(0)
			rt.EndRead(h)
			rt.Unmap(h)
		}
		h := rt.Map(n.own)
		rt.StartWrite(h)
		h.Data().SetFloat64(0, acc)
		rt.EndWrite(h)
		rt.Unmap(h)
	}
}

// buildNodes constructs the owned nodes in [lo,hi) of the class whose ids
// are ownIDs, choosing neighbors from otherIDs deterministically: with
// probability PctRemote the neighbor is owned by a different processor.
func buildNodes(cfg Config, lo, hi int, ownIDs, otherIDs []core.RegionID, class int64, rt rtiface.RT) []node {
	nodes := make([]node, 0, hi-lo)
	for i := lo; i < hi; i++ {
		rng := apputil.RNG(cfg.Seed, class*int64(cfg.Nodes)+int64(i))
		n := node{own: ownIDs[i]}
		for d := 0; d < cfg.Degree; d++ {
			var target int
			if rng.Intn(100) < cfg.PctRemote && rt.Procs() > 1 {
				// A node owned by someone else.
				for {
					target = rng.Intn(cfg.Nodes)
					if apputil.Owner(cfg.Nodes, rt.Procs(), target) != rt.ID() {
						break
					}
				}
			} else {
				myLo, myHi := apputil.Block(cfg.Nodes, rt.Procs(), rt.ID())
				target = myLo + rng.Intn(myHi-myLo)
			}
			n.neighbors = append(n.neighbors, otherIDs[target])
			// Normalized so values stay bounded over arbitrarily many steps.
			n.weights = append(n.weights, rng.Float64()/float64(cfg.Degree))
		}
		nodes = append(nodes, n)
	}
	return nodes
}

// gatherIDs assembles the global id array for one node class: each
// processor broadcasts the ids it allocated.
func gatherIDs(rt rtiface.RT, n int, mine []core.RegionID) []core.RegionID {
	all := make([]core.RegionID, 0, n)
	for p := 0; p < rt.Procs(); p++ {
		if p == rt.ID() {
			all = append(all, rt.BroadcastIDs(p, mine)...)
		} else {
			lo, hi := apputil.Block(n, rt.Procs(), p)
			all = append(all, rt.BroadcastIDs(p, make([]core.RegionID, hi-lo))...)
		}
	}
	return all
}

func protoLabel(p string) string {
	if p == "" {
		return "sc"
	}
	return p
}
