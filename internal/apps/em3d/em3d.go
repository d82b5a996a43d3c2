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

	// Elastic adds checkpoint/restore; the zero value takes none.
	Elastic ElasticConfig
}

// ElasticConfig adds checkpoint/restore to an EM3D run (DESIGN.md §13).
// It needs the Ace runtime. The graph construction is deterministic
// from Config, so a restarted cluster of the same shape reallocates the
// same region ids; a checkpoint therefore only needs the region
// contents plus the step it was taken at, and re-execution from there
// is bit-identical.
type ElasticConfig struct {
	// Every takes a collective checkpoint before computing step K for
	// every K that is a positive multiple of Every (0 disables).
	Every int
	// Save persists this processor's checkpoint; called on every
	// processor, outside any collective (failures propagate as run
	// errors). Nil discards.
	Save func(ck *core.Checkpoint) error
	// Resume, if non-nil, restores this checkpoint after construction
	// and starts the time-step loop at Resume.App instead of 0.
	Resume *core.Checkpoint
	// Delay, if positive, sleeps this long after every step — a drill
	// knob that stretches the run so a chaos harness can kill a process
	// mid-computation at a predictable step.
	Delay time.Duration
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

// Run executes EM3D on rt. With cfg.Elastic set it checkpoints and
// resumes; the checksum matches the plain run bit for bit, because
// construction is replayed, state is reset to the checkpoint image and
// the remaining steps re-execute deterministically.
func Run(rt rtiface.RT, cfg Config) (apputil.Result, error) {
	res := apputil.Result{Name: "em3d", Runtime: rt.Name(), Protocols: protoLabel(cfg.Proto)}
	if cfg.Nodes < rt.Procs() || cfg.Degree < 1 || cfg.Steps < 2 {
		return res, fmt.Errorf("em3d: bad config: %d nodes on %d procs, degree %d, %d steps",
			cfg.Nodes, rt.Procs(), cfg.Degree, cfg.Steps)
	}
	el := cfg.Elastic
	art, _ := rt.(*rtiface.AceRT) // checkpoints and restores go through art.P
	if art == nil && (el.Every != 0 || el.Save != nil || el.Resume != nil || el.Delay != 0) {
		return res, fmt.Errorf("em3d: checkpoints need the ace runtime, not %s", rt.Name())
	}
	start := 0
	if el.Resume != nil {
		start = int(el.Resume.App)
		if start < 0 || start >= cfg.Steps {
			return res, fmt.Errorf("em3d: checkpoint step %d outside [0,%d)", start, cfg.Steps)
		}
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

	// Restore after the protocol switch so the checkpoint lands on the
	// same protocol it was taken under (RestoreCheckpoint resets the
	// installed protocol's state either way).
	if el.Resume != nil {
		if err := art.P.RestoreCheckpoint(el.Resume); err != nil {
			return res, err
		}
		// Restore is local; fence it collectively so no processor's
		// first remote fetch can race a peer still installing its image.
		art.P.GlobalBarrier()
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
	for step := start; step < cfg.Steps; step++ {
		if el.Every > 0 && step > start && step%el.Every == 0 {
			ck, err := art.P.Checkpoint(uint64(step))
			if err != nil {
				return res, err
			}
			if el.Save != nil {
				if err := el.Save(ck); err != nil {
					return res, fmt.Errorf("em3d: checkpoint save: %w", err)
				}
			}
		}
		tm.StartIter()
		computePhase(rt, eNodes)
		barrier(eSpace)
		computePhase(rt, hNodes)
		barrier(hSpace)
		tm.EndIter()
		if el.Delay > 0 {
			time.Sleep(el.Delay)
		}
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
	myLo, myHi := apputil.Block(cfg.Nodes, rt.Procs(), rt.ID())
	for i := lo; i < hi; i++ {
		rng := apputil.RNG(cfg.Seed, class*int64(cfg.Nodes)+int64(i))
		n := node{
			own:       ownIDs[i],
			neighbors: make([]core.RegionID, 0, cfg.Degree),
			weights:   make([]float64, 0, cfg.Degree),
		}
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
