package em3d_test

import (
	"strings"
	"testing"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/apps/em3d"
	"github.com/acedsm/ace/internal/bench"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/rtiface"
)

func run(t *testing.T, procs int, cfg em3d.Config, crl bool) apputil.Result {
	t.Helper()
	app := func(rt rtiface.RT) (apputil.Result, error) { return em3d.Run(rt, cfg) }
	var res apputil.Result
	var err error
	if crl {
		res, err = bench.RunCRL(procs, app)
	} else {
		res, err = bench.RunAce(procs, app)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func smallCfg() em3d.Config {
	return em3d.Config{Nodes: 48, Degree: 5, PctRemote: 20, Steps: 4, Seed: 42}
}

// TestProtocolsComputeIdenticalResults is the central end-to-end check:
// the same program under sc, dynamic update and static update produces
// bit-identical values (the protocols differ in data movement only).
func TestProtocolsComputeIdenticalResults(t *testing.T) {
	base := run(t, 4, smallCfg(), false)
	for _, protoName := range []string{"update", "staticupdate"} {
		cfg := smallCfg()
		cfg.Proto = protoName
		got := run(t, 4, cfg, false)
		if got.Checksum != base.Checksum {
			t.Errorf("%s: checksum %v != sc %v", protoName, got.Checksum, base.Checksum)
		}
	}
}

// TestDeterministicForFixedProcs: for a fixed partitioning the result is
// bit-identical across runs. (The graph itself is partition-dependent by
// construction — "20% remote edges" is defined relative to the
// partition, as in the Split-C generator — so results are only comparable
// at equal processor counts.)
func TestDeterministicForFixedProcs(t *testing.T) {
	a := run(t, 4, smallCfg(), false)
	b := run(t, 4, smallCfg(), false)
	if a.Checksum != b.Checksum {
		t.Errorf("two identical runs differ: %v vs %v", a.Checksum, b.Checksum)
	}
}

func TestRunsOnCRLWithSameResult(t *testing.T) {
	ace := run(t, 4, smallCfg(), false)
	crl := run(t, 4, smallCfg(), true)
	if ace.Checksum != crl.Checksum {
		t.Fatalf("ace %v != crl %v", ace.Checksum, crl.Checksum)
	}
	if crl.Runtime != "crl" || ace.Runtime != "ace" {
		t.Errorf("runtime labels: %q, %q", ace.Runtime, crl.Runtime)
	}
}

// TestStaticUpdateReducesTraffic: the protocol's purpose is fewer
// messages in steady state.
func TestStaticUpdateReducesTraffic(t *testing.T) {
	cfg := smallCfg()
	cfg.Steps = 8
	sc := run(t, 4, cfg, false)
	cfg.Proto = "staticupdate"
	su := run(t, 4, cfg, false)
	if su.Msgs >= sc.Msgs {
		t.Fatalf("staticupdate msgs %d >= sc msgs %d", su.Msgs, sc.Msgs)
	}
}

// TestBadConfigs: each is rejected, and the error names sizes, not the
// address of a Save hook or Resume image.
func TestBadConfigs(t *testing.T) {
	hooks := em3d.ElasticConfig{Save: func(*core.Checkpoint) error { return nil }, Resume: &core.Checkpoint{}}
	bad := []em3d.Config{
		{Nodes: 2, Degree: 5, Steps: 4},                  // fewer nodes than procs
		{Nodes: 64, Degree: 0, Steps: 4},                 // no edges
		{Nodes: 64, Degree: 5, Steps: 1},                 // too few steps to time
		{Nodes: 64, Degree: 5, Steps: 1, Elastic: hooks}, // the same, checkpointing
	}
	for i, cfg := range bad {
		_, err := bench.RunAce(4, func(rt rtiface.RT) (apputil.Result, error) { return em3d.Run(rt, cfg) })
		if err == nil || strings.Contains(err.Error(), "0x") {
			t.Errorf("config %d: got %v, want a rejection that prints no pointer", i, err)
		}
	}
}

// TestPushAggregationCoalesces: barrier-time pushes bound for one
// destination travel as one frame. Each record in a frame is a message
// the per-region wire path would have sent (and acked) on its own, so
// at least two records per frame means at least 2× fewer coherence
// messages per step than that path.
func TestPushAggregationCoalesces(t *testing.T) {
	for _, protoName := range []string{"staticupdate", "update"} {
		cfg := em3d.DefaultConfig()
		cfg.Proto = protoName
		o, err := bench.RunAceObserved(8, func(rt rtiface.RT) (apputil.Result, error) { return em3d.Run(rt, cfg) })
		if err != nil {
			t.Fatal(err)
		}
		c := o.Metrics.Coll
		if c.AggFrames == 0 || c.AggRegions < 2*c.AggFrames {
			t.Errorf("%s: %d frames carried %d region records, want >= 2 per frame", protoName, c.AggFrames, c.AggRegions)
		}
	}
}
