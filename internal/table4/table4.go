// Package table4 defines the five compiler-experiment kernels behind the
// paper's Table 4. Each kernel exists twice:
//
//   - as a MiniAce program (<kernel>.ace, embedded and compiled once by
//     package lang) that the Ace compiler annotates and optimizes at the
//     four levels of Table 4 (base, LI, LI+MC, LI+MC+DC) and the VM
//     executes against the real runtime — the paper's pipeline: shared
//     accesses in the source, annotations inserted by the compiler — and
//   - as hand-written runtime code (Hand), the "code an experienced
//     programmer would write": maps hoisted, sections merged, exactly one
//     protocol call where one is needed.
//
// The kernels mirror the benchmarks' access structure at reduced scale —
// what Table 4 measures is annotation placement, not application physics —
// and each runs under the same protocol configuration as its Figure 7b
// "best" version, so checksum equality across all levels and the hand
// version is a strong end-to-end check on compiler soundness.
//
// acec -counts internal/table4/<kernel>.ace prints a kernel's static
// annotation counts at every level.
package table4

import (
	"embed"
	"fmt"
	"sync"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/ir"
	"github.com/acedsm/ace/internal/lang"
)

// Space ids used by every kernel program: SpLocal holds processor-local
// data (index regions, adjacency, scratch) under the null protocol;
// SpData holds the kernel's shared data under its best protocol; SpAux is
// kernel-specific (EM3D's H values, TSP's sequentially consistent bound).
// A kernel source declares its spaces in this order, named local, data
// and aux.
const (
	SpLocal = 0
	SpData  = 1
	SpAux   = 2
)

var spaceNames = [...]string{SpLocal: "local", SpData: "data", SpAux: "aux"}

// Kernel describes one Table 4 column.
type Kernel struct {
	// Name is the benchmark name the kernel mirrors.
	Name string
	// Prog is the kernel's source compiled to pre-annotation IR; the
	// entry function is "kernel". It is shared: compiler.Compile clones
	// its input.
	Prog *ir.Program
	// Spaces are the source's space declarations; declaration i is
	// space id i, created under its first protocol.
	Spaces []lang.SpaceDecl
	// Setup allocates and initializes the kernel's regions (collective)
	// and returns the entry function's arguments for this processor.
	Setup func(p *core.Proc, spaces map[int]*core.Space, cfg Config) []ir.Value
	// Hand runs the hand-optimized runtime-code version over the same
	// regions Setup produced (args as returned by Setup) and returns the
	// local checksum (the harness sums across processors).
	Hand func(p *core.Proc, spaces map[int]*core.Space, cfg Config, args []ir.Value) float64
}

// Config scales the kernels.
type Config struct {
	// N is the item count (graph nodes, molecules, bodies).
	N int
	// Degree is EM3D's node degree.
	Degree int
	// Steps is the iteration count for the iterative kernels.
	Steps int
	// Blocks, BlockSize and Band shape the BSC kernel.
	Blocks, BlockSize, Band int
	// Jobs and Cities shape the TSP kernel.
	Jobs, Cities int
}

// DefaultConfig returns the laptop-scale configuration.
func DefaultConfig() Config {
	return Config{
		N: 128, Degree: 6, Steps: 6,
		Blocks: 8, BlockSize: 8, Band: 3,
		Jobs: 24, Cities: 10,
	}
}

//go:embed *.ace
var sources embed.FS

// Kernels returns all five kernels in Table 4's column order, compiled on
// the first call. Callers share the result and must not modify it.
var Kernels = sync.OnceValue(func() []Kernel {
	return []Kernel{
		load("bh.ace", Kernel{Name: "barnes-hut", Setup: setupBH, Hand: handBH}),
		load("bsc.ace", Kernel{Name: "bsc", Setup: setupBSC, Hand: handBSC}),
		load("em3d.ace", Kernel{Name: "em3d", Setup: setupEM3D, Hand: handEM3D}),
		load("tsp.ace", Kernel{Name: "tsp", Setup: setupTSP, Hand: handTSP}),
		load("water.ace", Kernel{Name: "water", Setup: setupWater, Hand: handWater}),
	}
})

// load compiles k's embedded source into k.Prog and k.Spaces. The
// sources are part of the build, so a failure is a bug in them.
func load(file string, k Kernel) Kernel {
	src, err := sources.ReadFile(file)
	if err != nil {
		panic(err)
	}
	k.Prog, k.Spaces, err = compileKernel(string(src))
	if err != nil {
		panic(fmt.Sprintf("table4: %s: %v", file, err))
	}
	return k
}

// compileKernel compiles kernel source and checks what the Go halves rely
// on: a "kernel" entry function, and spaces declared as local, data, aux
// in that order, so that SpLocal, SpData and SpAux index them.
func compileKernel(src string) (*ir.Program, []lang.SpaceDecl, error) {
	prog, spaces, err := lang.Compile(src)
	if err != nil {
		return nil, nil, err
	}
	if prog.Funcs["kernel"] == nil {
		return nil, nil, fmt.Errorf("no func kernel")
	}
	if len(spaces) > len(spaceNames) {
		return nil, nil, fmt.Errorf("%d spaces declared, at most %d", len(spaces), len(spaceNames))
	}
	for i, sd := range spaces {
		if sd.Name != spaceNames[i] {
			return nil, nil, fmt.Errorf("space %d is %q, want %q", i, sd.Name, spaceNames[i])
		}
	}
	return prog, spaces, nil
}

// ---------------------------------------------------------------------
// Shared setup helpers.
// ---------------------------------------------------------------------

// blockRange mirrors apputil.Block for the kernel partitioning.
func blockRange(n, procs, p int) (int, int) {
	base := n / procs
	rem := n % procs
	lo := p*base + min(p, rem)
	hi := lo + base
	if p < rem {
		hi++
	}
	return lo, hi
}

// allocAll allocates one region of the given byte size per item, owner by
// block partition, and returns the global id list (collective).
func allocAll(p *core.Proc, sp *core.Space, n, size int) []core.RegionID {
	lo, hi := blockRange(n, p.Procs(), p.ID())
	mine := make([]core.RegionID, 0, hi-lo)
	for i := lo; i < hi; i++ {
		mine = append(mine, p.GMalloc(sp, size))
	}
	all := make([]core.RegionID, 0, n)
	for root := 0; root < p.Procs(); root++ {
		if root == p.ID() {
			all = append(all, p.BroadcastIDs(root, mine)...)
		} else {
			rl, rh := blockRange(n, p.Procs(), root)
			all = append(all, p.BroadcastIDs(root, make([]core.RegionID, rh-rl))...)
		}
	}
	return all
}

// idIndexRegion builds a processor-local region holding the given id list.
func idIndexRegion(p *core.Proc, local *core.Space, ids []core.RegionID) core.RegionID {
	id := p.GMalloc(local, len(ids)*8)
	r := p.Map(id)
	p.StartWrite(r)
	for i, v := range ids {
		r.Data.SetRegionID(i, v)
	}
	p.EndWrite(r)
	p.Unmap(r)
	return id
}
