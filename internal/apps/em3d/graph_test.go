package em3d

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/rtiface"
)

// procRT is the slice of a runtime buildNodes reads: who the caller is
// and how many processors there are.
type procRT struct {
	rtiface.RT
	id, procs int
}

func (r procRT) ID() int    { return r.id }
func (r procRT) Procs() int { return r.procs }

// graphDigest is the FNV-1a digest of benchGraph as buildNodes builds
// it: for every processor and both classes, each node's id, neighbor ids
// and the bits of its weights, in construction order.
const graphDigest = 0x033fca741d326073

// benchGraph is the benchmark's input graph (1,000 nodes per class,
// degree 10, 20 % remote, seed 1, 4 procs) with region ids that are the
// node's index, offset by class, so a digest names graph positions
// rather than allocation order.
func benchGraph() (cfg Config, procs int, eIDs, hIDs []core.RegionID) {
	cfg = Config{Nodes: 1000, Degree: 10, PctRemote: 20, Steps: 100, Seed: 1}
	eIDs = make([]core.RegionID, cfg.Nodes)
	hIDs = make([]core.RegionID, cfg.Nodes)
	for i := range eIDs {
		eIDs[i] = core.RegionID(i)
		hIDs[i] = core.RegionID(cfg.Nodes + i)
	}
	return cfg, 4, eIDs, hIDs
}

// TestGraphDigest pins the graph itself: the message-count pins see
// only traffic, so a moved weight, or an edge moved within its owner,
// would pass them. It fails if one edge or one weight bit changes.
func TestGraphDigest(t *testing.T) {
	cfg, procs, eIDs, hIDs := benchGraph()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for p := 0; p < procs; p++ {
		rt := procRT{id: p, procs: procs}
		lo, hi := apputil.Block(cfg.Nodes, procs, p)
		for class, ids := range [][2][]core.RegionID{{eIDs, hIDs}, {hIDs, eIDs}} {
			for _, n := range buildNodes(cfg, lo, hi, ids[0], ids[1], int64(class), rt) {
				put(uint64(n.own))
				for j, nb := range n.neighbors {
					put(uint64(nb))
					put(math.Float64bits(n.weights[j]))
				}
			}
		}
	}
	if got := h.Sum64(); got != graphDigest {
		t.Fatalf("graph digest %#x, want %#x", got, uint64(graphDigest))
	}
}

// BenchmarkBuildNodes is processor 0's graph construction at the
// benchmark's input: both classes of its 250 nodes.
func BenchmarkBuildNodes(b *testing.B) {
	cfg, procs, eIDs, hIDs := benchGraph()
	rt := procRT{id: 0, procs: procs}
	lo, hi := apputil.Block(cfg.Nodes, procs, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buildNodes(cfg, lo, hi, eIDs, hIDs, 0, rt)
		buildNodes(cfg, lo, hi, hIDs, eIDs, 1, rt)
	}
}
