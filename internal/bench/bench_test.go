package bench

import (
	"testing"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/apps/bsc"
	"github.com/acedsm/ace/internal/apps/tsp"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/rtiface"
)

func TestFig7aSmall(t *testing.T) {
	w := WorkloadsFor(ScaleSmall, 4)
	rows, err := Fig7a(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Checksum {
			t.Errorf("%s: checksum mismatch between runtimes: %v vs %v", r.App, r.Base.Checksum, r.Opt.Checksum)
		}
		if r.Base.Msgs == 0 || r.Opt.Msgs == 0 {
			t.Errorf("%s: zero traffic recorded", r.App)
		}
	}
	t.Logf("\n%s", FormatRows(rows, "crl", "ace"))
}

func TestFig7bSmall(t *testing.T) {
	w := WorkloadsFor(ScaleSmall, 4)
	rows, err := Fig7b(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if !r.Checksum {
			t.Errorf("%s: checksum mismatch sc vs custom: %v vs %v", r.App, r.Base.Checksum, r.Opt.Checksum)
		}
	}
	t.Logf("\n%s", FormatRows(rows, "sc", "custom"))
}

// TestFig7bTrafficShape checks the message-count shape that drives the
// paper's Figure 7b at a deterministic level (wall times are noisy in unit
// tests): the update-family protocols must cut traffic for em3d, and the
// atomic counter must cut traffic for tsp.
func TestFig7bTrafficShape(t *testing.T) {
	w := WorkloadsFor(ScaleDefault, 4)
	rows, err := Fig7b(w)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	if r := byApp["em3d"]; r.Opt.Msgs >= r.Base.Msgs {
		t.Errorf("em3d: staticupdate used %d msgs, sc used %d; expected fewer", r.Opt.Msgs, r.Base.Msgs)
	}
	if r := byApp["water"]; r.Opt.Msgs >= r.Base.Msgs {
		t.Errorf("water: pipeline/null used %d msgs, sc used %d; expected fewer", r.Opt.Msgs, r.Base.Msgs)
	}
	// TSP's atomic-counter win is a round-trip/latency effect, not a raw
	// message-count one (acquire+release is four messages either way);
	// assert only that the custom run stays correct and bounded.
	if r := byApp["tsp"]; r.Opt.Msgs == 0 {
		t.Errorf("tsp: no traffic recorded for atomic counter run")
	}
}

// TestAdaptiveMatchesSC: every fig-7b benchmark started on sc with the
// online protocol controller enabled computes the controller-off
// answer, and lands on a pinned protocol with a pinned switch count.
// The controller decides from counted aggregates only, so the landing
// table is a property of the program, not of the host's timing.
func TestAdaptiveMatchesSC(t *testing.T) {
	w := WorkloadsFor(ScaleSmall, 4)
	// Benchmark-length tuning: tens of barriers per run, so short
	// epochs and eager switching; MinOps keeps idle phases from feeding
	// the streak.
	cfg := &core.AdaptConfig{EpochBarriers: 2, Hysteresis: 2, Cooldown: 1, MinOps: 8}
	landing := map[string]struct {
		proto    string
		switches uint64
	}{
		"barnes-hut": {"staticupdate", 1},
		"bsc":        {"homewrite", 1},
		"em3d":       {"staticupdate", 1},
		"tsp":        {"sc", 0},
		"water":      {"sc", 0},
	}
	for _, a := range apps(w, false) {
		sc, err := RunAce(w.Procs, a.fn)
		if err != nil {
			t.Fatalf("%s (sc): %v", a.name, err)
		}
		ad, err := RunAceAdaptive(w.Procs, a.fn, cfg)
		if err != nil {
			t.Fatalf("%s (adaptive): %v", a.name, err)
		}
		if !checksumsMatch(sc.Checksum, ad.Result.Checksum) {
			t.Errorf("%s: adaptive checksum %v, sc %v", a.name, ad.Result.Checksum, sc.Checksum)
		}
		want := landing[a.name]
		if len(ad.Metrics.Adapt) != 1 {
			t.Errorf("%s: adapt stats for %d spaces, want 1: %+v", a.name, len(ad.Metrics.Adapt), ad.Metrics.Adapt)
			continue
		}
		if got := ad.Metrics.Adapt[0]; got.Protocol != want.proto || got.Switches != want.switches {
			t.Errorf("%s: landed on %q after %d switches, want %q after %d",
				a.name, got.Protocol, got.Switches, want.proto, want.switches)
		}
	}
}

func TestTSPMatchesSequential(t *testing.T) {
	cfg := tsp.DefaultConfig()
	cfg.Cities = 9
	want := tsp.SequentialBest(cfg)
	res, err := RunAce(4, func(rt rtiface.RT) (apputil.Result, error) { return tsp.Run(rt, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Checksum) != want {
		t.Fatalf("parallel best %v, sequential %d", res.Checksum, want)
	}
}

func TestBSCMatchesSequential(t *testing.T) {
	cfg := bsc.Config{Blocks: 6, BlockSize: 8, Bandwidth: 3, Seed: 3}
	want := bsc.SequentialFactor(cfg)
	res, err := RunAce(3, func(rt rtiface.RT) (apputil.Result, error) { return bsc.Run(rt, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	diff := res.Checksum - want
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-6 {
		t.Fatalf("parallel checksum %v, sequential %v", res.Checksum, want)
	}
	// And under the homewrite protocol.
	cfg.Proto = "homewrite"
	res2, err := RunAce(3, func(rt rtiface.RT) (apputil.Result, error) { return bsc.Run(rt, cfg) })
	if err != nil {
		t.Fatal(err)
	}
	if d := res2.Checksum - want; d > 1e-6 || d < -1e-6 {
		t.Fatalf("homewrite checksum %v, sequential %v", res2.Checksum, want)
	}
}
