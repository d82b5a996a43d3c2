package chaos

import (
	"fmt"
	"testing"
)

// collCells are the cluster shapes the collective conformance gate pins
// beside the matrix's default size (P = 4, a full binomial tree): five
// processors make a tree that is not a power of two, clipped below the
// root's last child. Push aggregation is the only push path, so it is
// on in every cell.
var collCells = []struct {
	name  string
	procs int
}{
	{"tree+agg", 5},
}

// TestCollTopologyCells runs the update-family protocols (the ones with
// batched push paths) plus writethrough through the conformance
// schedule on every pinned cell, under the clean, lossy and partitioned
// policies.
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

// TestCollGenerationOverlap: under lossy faults one barrier generation's
// release wave races the next generation's arrivals — each node's
// handlers against its application thread's own tree arrival — and the
// conformance invariants must hold with push aggregation active on top
// of that.
func TestCollGenerationOverlap(t *testing.T) {
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
			})
			if rep.Err != nil {
				t.Fatal(FormatReport(rep))
			}
		})
	}
}
