package chaos

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/acedsm/ace/internal/core"
)

// collCells are the topology configurations the collective conformance
// gate pins, alongside the matrix's default-auto runs: the tree above the
// star cutoff (so size alone would pick it too) and the star explicitly
// forced on a small cluster (where auto would also pick it — the point
// is the aggregated push path on the reference topology).
var collCells = []struct {
	name  string
	coll  string
	procs int
}{
	{"tree+agg", "tree", 5},
	{"star+agg", "star", 4},
}

// TestCollTopologyCells runs the update-family protocols (the ones with
// batched push paths) plus writethrough through the conformance
// schedule on every pinned topology cell, under the clean, lossy and
// partitioned policies.
func TestCollTopologyCells(t *testing.T) {
	seeds := []int64{1, 2}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, protocol := range []string{"staticupdate", "update", "writethrough"} {
		for _, cell := range collCells {
			for _, policy := range []string{"clean", "lossy", "partitioned"} {
				protocol, cell, policy := protocol, cell, policy
				t.Run(fmt.Sprintf("%s/%s/%s", protocol, cell.name, policy), func(t *testing.T) {
					t.Parallel()
					for _, seed := range seeds {
						rep := Run(Config{
							Seed:     seed,
							Procs:    cell.procs,
							Protocol: protocol,
							Policy:   policy,
							Coll:     cell.coll,
						})
						if rep.Err != nil {
							t.Fatal(FormatReport(rep))
						}
					}
				})
			}
		}
	}
}

// TestCollLanesOverlap: under lossy faults one barrier generation's
// release wave races the next generation's arrivals — each node's
// handlers against its application thread's own tree arrival — and the
// conformance invariants must hold with the tree topology and push
// aggregation both active on top of that.
func TestCollLanesOverlap(t *testing.T) {
	for _, protocol := range []string{"staticupdate", "update"} {
		protocol := protocol
		t.Run(protocol, func(t *testing.T) {
			t.Parallel()
			rep := Run(Config{
				Seed:     1,
				Procs:    5,
				Turns:    60,
				Protocol: protocol,
				Policy:   "lossy",
				Coll:     "tree",
			})
			if rep.Err != nil {
				t.Fatal(FormatReport(rep))
			}
		})
	}
}

// TestCollUnknownTopologyRejected: a bad -chaos-coll value must fail
// the run with a diagnostic, not fall back silently.
func TestCollUnknownTopologyRejected(t *testing.T) {
	rep := Run(Config{Seed: 1, Protocol: "sc", Coll: "ring"})
	if rep.Err == nil {
		t.Fatal("unknown topology accepted")
	}
}

// TestCollReplayCarriesFlags: the replay command of a topology-forced
// run must reproduce the topology.
func TestCollReplayCarriesFlags(t *testing.T) {
	rep := Run(Config{Seed: 3, Protocol: "broken", Coll: "tree"})
	if rep.Err == nil {
		t.Fatal("broken protocol passed")
	}
	for _, want := range []string{"-chaos-coll tree", "-chaos-seed 3"} {
		if !strings.Contains(rep.Replay, want) {
			t.Errorf("replay %q missing %q", rep.Replay, want)
		}
	}
}

// TestStarTreeReductionBitIdentical cross-checks the two topologies'
// float reductions bit for bit: both must fold contributions in the
// canonical binomial order, so even the non-associative float sum
// produces identical bits. Runs a seeded vector workload on paired
// clusters, forced star vs forced tree.
func TestStarTreeReductionBitIdentical(t *testing.T) {
	const procs, rounds, width = 8, 6, 5
	results := make(map[string][][]uint64)
	for _, topo := range []struct {
		name string
		t    core.CollTopology
	}{{"star", core.CollStar}, {"tree", core.CollTree}} {
		cl, err := core.NewCluster(core.Options{Procs: procs, Coll: core.CollConfig{Topology: topo.t}})
		if err != nil {
			t.Fatal(err)
		}
		var got [][]uint64
		err = cl.Run(func(p *core.Proc) error {
			for round := 0; round < rounds; round++ {
				// Seed-free but rank/round-dependent values with enough
				// dynamic range that association order matters.
				vec := make([]int64, width)
				for i := range vec {
					f := math.Sqrt(float64(p.ID()+1)) * math.Pow(10, float64((p.ID()+round+i)%7-3))
					vec[i] = int64(math.Float64bits(f))
				}
				// Float sums ride the float code path via AllReduceFloat64;
				// the vector path is integer — check both.
				fsum := p.AllReduceFloat64(core.OpSum, math.Sqrt(float64(p.ID()+1))*math.Pow(10, float64((p.ID()+round)%5-2)))
				isum := p.AllReduceInt64s(core.OpSum, vec)
				if p.ID() == 0 {
					row := []uint64{math.Float64bits(fsum)}
					for _, v := range isum {
						row = append(row, uint64(v))
					}
					got = append(got, row)
				}
				p.GlobalBarrier()
			}
			return nil
		})
		cl.Close()
		if err != nil {
			t.Fatalf("%s: %v", topo.name, err)
		}
		results[topo.name] = got
	}
	for r := range results["star"] {
		for i := range results["star"][r] {
			if results["star"][r][i] != results["tree"][r][i] {
				t.Errorf("round %d slot %d: star %x != tree %x", r, i, results["star"][r][i], results["tree"][r][i])
			}
		}
	}
}
