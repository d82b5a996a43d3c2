// EM3D with customizable protocols: the Section 3.3 walkthrough.
//
// The application is developed once against the sequentially consistent
// protocol, then re-run with the dynamic update library and the static
// update library plugged in — the only change being the protocol
// configuration, exactly as in Figure 2 (two ChangeProtocol calls). The
// paper reports speedups of 3.5x (dynamic update) and about 5x (static
// update) over the invalidation protocol on the CM-5; this program prints
// the same comparison for the in-process cluster.
//
// Run: go run ./examples/em3d
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/apps/em3d"
	"github.com/acedsm/ace/internal/bench"
	"github.com/acedsm/ace/internal/rtiface"
)

func main() {
	cfg := em3d.DefaultConfig()
	cfg.Nodes = 512
	cfg.Steps = 20
	const procs = 8

	run := func(protoName string) apputil.Result {
		c := cfg
		c.Proto = protoName
		res, err := bench.RunAce(procs, func(rt rtiface.RT) (apputil.Result, error) {
			return em3d.Run(rt, c)
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Printf("EM3D: %d+%d nodes, degree %d, %d%% remote edges, %d steps, %d procs\n\n",
		cfg.Nodes, cfg.Nodes, cfg.Degree, cfg.PctRemote, cfg.Steps, procs)

	sc := run("")
	fmt.Printf("%-22s %10v/iter  %8d msgs   checksum %g\n",
		"sequentially consist.", sc.TimePerIter.Round(time.Microsecond), sc.Msgs, sc.Checksum)

	dyn := run("update")
	fmt.Printf("%-22s %10v/iter  %8d msgs   checksum %g   speedup %.2fx\n",
		"dynamic update", dyn.TimePerIter.Round(time.Microsecond), dyn.Msgs, dyn.Checksum,
		float64(sc.TimePerIter)/float64(dyn.TimePerIter))

	static := run("staticupdate")
	fmt.Printf("%-22s %10v/iter  %8d msgs   checksum %g   speedup %.2fx\n",
		"static update", static.TimePerIter.Round(time.Microsecond), static.Msgs, static.Checksum,
		float64(sc.TimePerIter)/float64(static.TimePerIter))

	if sc.Checksum != dyn.Checksum || sc.Checksum != static.Checksum {
		log.Fatal("checksum mismatch between protocols")
	}
	fmt.Println("\nall protocols computed identical results")
}
