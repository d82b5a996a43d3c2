package bench

import (
	"testing"

	"github.com/acedsm/ace/internal/table4"
)

// table4Calls pins the annotation calls executed (all processors) by
// every kernel at base, LI, LI+MC and LI+MC+DC for the configuration
// below at 2 procs — the mechanism behind each row of the paper's
// Table 4.
var table4Calls = map[string][4]uint64{
	"barnes-hut": {95184, 89160, 22170, 8522},
	"bsc":        {17694, 252, 201, 90},
	"em3d":       {12672, 4728, 4728, 3112},
	"tsp":        {2700, 120, 118, 98},
	"water":      {198000, 6108, 2244, 1580},
}

// TestTable4SmallAllKernels runs the whole Table 4 experiment at a small
// scale: every kernel at every optimization level plus the hand version,
// with checksum agreement enforced by RunTable4 itself, and pins each
// level's annotation-call count. The pins carry the paper's per-pass
// story: LI removes almost every BSC call, MC collapses Barnes-Hut's and
// Water's sections, DC deletes EM3D's null-handler calls, and TSP's
// counter and bound calls, declared non-optimizable, survive every
// level.
func TestTable4SmallAllKernels(t *testing.T) {
	cfg := table4.Config{
		N: 48, Degree: 4, Steps: 3,
		Blocks: 6, BlockSize: 6, Band: 2,
		Jobs: 12, Cities: 6,
	}
	results, err := RunTable4(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(table4Calls) {
		t.Fatalf("got %d kernels, want %d", len(results), len(table4Calls))
	}
	for name, want := range table4Calls {
		rows := results[name]
		if len(rows) != 5 {
			t.Fatalf("%s: %d rows", name, len(rows))
		}
		for i, w := range want {
			if rows[i].Calls != w {
				t.Errorf("%s %s: %d annotation calls, want %d", name, rows[i].Level, rows[i].Calls, w)
			}
		}
	}
}
