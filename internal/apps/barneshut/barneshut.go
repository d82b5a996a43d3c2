// Package barneshut implements the Barnes-Hut O(N log N) hierarchical
// N-body benchmark (Barnes & Hut, Nature 1986; SPLASH suite).
//
// Bodies are shared regions (position, velocity, mass); each time step
// every processor reads all body states, builds the octree locally, and
// computes forces for the bodies it owns — so the tree is replicated and
// deterministic while body state is the shared, fine-grained data
// structure. This preserves the sharing pattern the protocols react to:
// per-step all-to-all reads of data each owner rewrites every step. (The
// CRL original shares the tree cells too; body traffic dominates and is
// what the paper's dynamic update protocol targets.)
//
// The application-specific protocol (Section 5.2) is the dynamic update
// protocol for bodies: each owner's end-of-step writes are pushed to all
// sharers, replacing per-step read-miss round trips with asynchronous
// updates.
package barneshut

import (
	"fmt"
	"math"
	"time"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/rtiface"
)

// Config parameterizes the benchmark. The paper used 16384 bodies, 4 time
// steps, tolerance (theta) 1.0, eps 0.5.
type Config struct {
	Bodies int
	Steps  int
	Theta  float64
	Eps    float64
	DT     float64
	Seed   int64

	// Proto, if non-empty, is the protocol for the body space
	// ("update"). Empty runs on the default space.
	Proto string
}

// DefaultConfig returns a laptop-scale configuration with the paper's
// physics constants.
func DefaultConfig() Config {
	return Config{Bodies: 256, Steps: 5, Theta: 1.0, Eps: 0.5, DT: 0.025, Seed: 17}
}

// Body region layout, in float64 slots.
const (
	slotPX = iota
	slotPY
	slotPZ
	slotVX
	slotVY
	slotVZ
	slotMass
	bodySlots
)

// body is a local snapshot of a body's state.
type body struct {
	pos  [3]float64
	vel  [3]float64
	mass float64
}

// Run executes Barnes-Hut on rt.
func Run(rt rtiface.RT, cfg Config) (apputil.Result, error) {
	res := apputil.Result{Name: "barneshut", Runtime: rt.Name(), Protocols: protoLabel(cfg.Proto)}
	if cfg.Bodies < rt.Procs() || cfg.Steps < 2 {
		return res, fmt.Errorf("barneshut: bad config %+v", cfg)
	}

	srt, hasSpaces := rt.(rtiface.SpaceRT)
	useSpace := cfg.Proto != "" && hasSpaces
	if cfg.Proto != "" && !hasSpaces {
		return res, fmt.Errorf("barneshut: runtime %s has no spaces for protocol %q", rt.Name(), cfg.Proto)
	}
	var space rtiface.SpaceID
	if useSpace {
		var err error
		if space, err = srt.NewSpace("sc"); err != nil {
			return res, err
		}
	}

	// Allocate owned bodies, learn all ids, map everything.
	lo, hi := apputil.Block(cfg.Bodies, rt.Procs(), rt.ID())
	mine := make([]core.RegionID, 0, hi-lo)
	for i := lo; i < hi; i++ {
		if useSpace {
			mine = append(mine, srt.MallocIn(space, bodySlots*8))
		} else {
			mine = append(mine, rt.Malloc(bodySlots*8))
		}
	}
	ids := gatherIDs(rt, cfg.Bodies, mine)

	// Deterministic initial conditions: a Plummer-ish ball. Regions are
	// mapped around each use, the canonical region-programming style.
	for i := lo; i < hi; i++ {
		rng := apputil.RNG(cfg.Seed, int64(i))
		h := rt.Map(ids[i])
		rt.StartWrite(h)
		for d := 0; d < 3; d++ {
			h.Data().SetFloat64(slotPX+d, rng.Float64()*2-1)
			h.Data().SetFloat64(slotVX+d, (rng.Float64()*2-1)*0.1)
		}
		h.Data().SetFloat64(slotMass, 0.5+rng.Float64())
		rt.EndWrite(h)
		rt.Unmap(h)
	}
	rt.Barrier()

	if useSpace && cfg.Proto != "sc" {
		if err := srt.ChangeProtocol(space, cfg.Proto); err != nil {
			return res, err
		}
	}
	barrier := func() {
		if useSpace {
			srt.BarrierSpace(space)
		} else {
			rt.Barrier()
		}
	}

	snapshot := make([]body, cfg.Bodies)
	var tm apputil.Timer
	for step := 0; step < cfg.Steps; step++ {
		tm.StartIter()
		// Read all body states (this is the shared traffic).
		for i, id := range ids {
			h := rt.Map(id)
			rt.StartRead(h)
			d := h.Data()
			snapshot[i] = body{
				pos:  [3]float64{d.Float64(slotPX), d.Float64(slotPY), d.Float64(slotPZ)},
				vel:  [3]float64{d.Float64(slotVX), d.Float64(slotVY), d.Float64(slotVZ)},
				mass: d.Float64(slotMass),
			}
			rt.EndRead(h)
			rt.Unmap(h)
		}
		// All reads complete before anyone writes: without this barrier
		// a fast processor's end-of-step writes could be observed by a
		// slow processor still snapshotting (a data race under any
		// protocol).
		barrier()
		// Build the octree locally (deterministic: same snapshot
		// everywhere) and compute forces for owned bodies.
		tree := buildTree(snapshot)
		for i := lo; i < hi; i++ {
			acc := tree.force(snapshot[i].pos, cfg.Theta, cfg.Eps, i, snapshot)
			b := &snapshot[i]
			for d := 0; d < 3; d++ {
				b.vel[d] += acc[d] * cfg.DT
				b.pos[d] += b.vel[d] * cfg.DT
			}
			h := rt.Map(ids[i])
			rt.StartWrite(h)
			dd := h.Data()
			dd.SetFloat64(slotPX, b.pos[0])
			dd.SetFloat64(slotPY, b.pos[1])
			dd.SetFloat64(slotPZ, b.pos[2])
			dd.SetFloat64(slotVX, b.vel[0])
			dd.SetFloat64(slotVY, b.vel[1])
			dd.SetFloat64(slotVZ, b.vel[2])
			rt.EndWrite(h)
			rt.Unmap(h)
		}
		barrier()
		tm.EndIter()
	}

	// Checksum: positions of owned bodies.
	sum := 0.0
	for i := lo; i < hi; i++ {
		h := rt.Map(ids[i])
		rt.StartRead(h)
		sum += h.Data().Float64(slotPX) + h.Data().Float64(slotPY) + h.Data().Float64(slotPZ)
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

// cell is an octree node: either a leaf holding one body index or an
// internal node with up to eight children, carrying total mass and center
// of mass.
type cell struct {
	center [3]float64 // geometric center of this cell's cube
	half   float64    // half the cube's side
	body   int        // leaf body index, or -1
	kids   [8]*cell
	mass   float64
	com    [3]float64
	leaf   bool
}

// buildTree constructs the octree over all bodies.
func buildTree(bodies []body) *cell {
	lo := [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, b := range bodies {
		for d := 0; d < 3; d++ {
			lo[d] = math.Min(lo[d], b.pos[d])
			hi[d] = math.Max(hi[d], b.pos[d])
		}
	}
	half := 0.0
	var center [3]float64
	for d := 0; d < 3; d++ {
		center[d] = (lo[d] + hi[d]) / 2
		half = math.Max(half, (hi[d]-lo[d])/2)
	}
	half = half*1.0001 + 1e-9
	root := &cell{center: center, half: half, body: -1}
	for i := range bodies {
		root.insert(i, bodies)
	}
	root.summarize(bodies)
	return root
}

// insert adds body i to the subtree rooted at c.
func (c *cell) insert(i int, bodies []body) {
	if !c.leaf && !c.hasChildren() {
		// Never-occupied node: become a leaf.
		c.leaf = true
		c.body = i
		return
	}
	if c.leaf {
		old := c.body
		if samePos(bodies[old].pos, bodies[i].pos) || c.half < 1e-12 {
			// Coincident bodies would split forever. Randomized initial
			// conditions never coincide; treat an exact collision as a
			// single point mass.
			return
		}
		// Split: push the resident body down, then fall through to
		// insert i.
		c.leaf = false
		c.body = -1
		c.childFor(bodies[old].pos).insert(old, bodies)
	}
	c.childFor(bodies[i].pos).insert(i, bodies)
}

func (c *cell) hasChildren() bool {
	for _, k := range c.kids {
		if k != nil {
			return true
		}
	}
	return false
}

// childFor returns (creating on demand) the child cube containing pos.
func (c *cell) childFor(pos [3]float64) *cell {
	idx := 0
	var off [3]float64
	for d := 0; d < 3; d++ {
		if pos[d] >= c.center[d] {
			idx |= 1 << d
			off[d] = c.half / 2
		} else {
			off[d] = -c.half / 2
		}
	}
	if c.kids[idx] == nil {
		c.kids[idx] = &cell{
			center: [3]float64{c.center[0] + off[0], c.center[1] + off[1], c.center[2] + off[2]},
			half:   c.half / 2,
			body:   -1,
		}
	}
	return c.kids[idx]
}

// summarize computes mass and center of mass bottom-up.
func (c *cell) summarize(bodies []body) {
	if c.leaf {
		b := bodies[c.body]
		c.mass = b.mass
		c.com = b.pos
		return
	}
	var m float64
	var com [3]float64
	for _, k := range c.kids {
		if k == nil {
			continue
		}
		k.summarize(bodies)
		m += k.mass
		for d := 0; d < 3; d++ {
			com[d] += k.com[d] * k.mass
		}
	}
	c.mass = m
	if m > 0 {
		for d := 0; d < 3; d++ {
			com[d] /= m
		}
	}
	c.com = com
}

// force computes the acceleration on a body at pos using the Barnes-Hut
// opening criterion.
func (c *cell) force(pos [3]float64, theta, eps float64, self int, bodies []body) [3]float64 {
	var acc [3]float64
	c.accumulate(pos, theta, eps, self, bodies, &acc)
	return acc
}

func (c *cell) accumulate(pos [3]float64, theta, eps float64, self int, bodies []body, acc *[3]float64) {
	if c.mass == 0 {
		return
	}
	if c.leaf {
		if c.body == self {
			return
		}
		addForce(pos, c.com, c.mass, eps, acc)
		return
	}
	dx := c.com[0] - pos[0]
	dy := c.com[1] - pos[1]
	dz := c.com[2] - pos[2]
	dist2 := dx*dx + dy*dy + dz*dz
	size := 2 * c.half
	if size*size < theta*theta*dist2 {
		addForce(pos, c.com, c.mass, eps, acc)
		return
	}
	for _, k := range c.kids {
		if k != nil {
			k.accumulate(pos, theta, eps, self, bodies, acc)
		}
	}
}

func addForce(pos, src [3]float64, mass, eps float64, acc *[3]float64) {
	dx := src[0] - pos[0]
	dy := src[1] - pos[1]
	dz := src[2] - pos[2]
	r2 := dx*dx + dy*dy + dz*dz + eps*eps
	inv := mass / (r2 * math.Sqrt(r2))
	acc[0] += dx * inv
	acc[1] += dy * inv
	acc[2] += dz * inv
}

func samePos(a, b [3]float64) bool { return a == b }

// gatherIDs assembles the global body id array.
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
