package bench

import (
	"testing"

	"github.com/acedsm/ace/internal/apps/apputil"
	"github.com/acedsm/ace/internal/apps/bsc"
	"github.com/acedsm/ace/internal/apps/em3d"
	"github.com/acedsm/ace/internal/apps/tsp"
	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/rtiface"
	"github.com/acedsm/ace/internal/trace"
)

// fig7Msgs pins the cluster message counts of the Figure 7 runs at
// small scale, 4 procs: sc is the Ace run under sequential consistency
// (which CRL must match exactly, Figure 7a), custom the run under the
// benchmark's application-specific protocols (Figure 7b). Zero marks a
// count that depends on lock and work-queue order, checked only
// relationally: tsp on either runtime, water under sc.
var fig7Msgs = map[string]struct{ sc, custom uint64 }{
	"barnes-hut": {2388, 558},
	"bsc":        {180, 186},
	"em3d":       {3004, 710},
	"tsp":        {0, 0},
	"water":      {0, 840},
}

// TestFig7aSmall runs every benchmark on CRL and on Ace, both under
// sequential consistency (Figure 7a). Both runtimes share the coherence
// engine and at this scale CRL's unmapped-region cache forces no
// re-fetch, so wherever the count is deterministic the two send the
// same pinned number of messages: the runtimes differ in how they map,
// not in what they send.
func TestFig7aSmall(t *testing.T) {
	w := WorkloadsFor(ScaleSmall, 4)
	for _, a := range Apps(w, false) {
		crlRes, err := RunCRL(w.Procs, a.Run)
		if err != nil {
			t.Fatalf("%s (crl): %v", a.Name, err)
		}
		aceRes, err := RunAce(w.Procs, a.Run)
		if err != nil {
			t.Fatalf("%s (ace): %v", a.Name, err)
		}
		if !checksumsMatch(crlRes.Checksum, aceRes.Checksum) {
			t.Errorf("%s: checksum mismatch between runtimes: %v vs %v", a.Name, crlRes.Checksum, aceRes.Checksum)
		}
		if crlRes.Msgs == 0 || aceRes.Msgs == 0 {
			t.Errorf("%s: zero traffic recorded", a.Name)
		}
		if want := fig7Msgs[a.Name].sc; want != 0 && (crlRes.Msgs != want || aceRes.Msgs != want) {
			t.Errorf("%s: crl sent %d msgs, ace %d; want %d on both", a.Name, crlRes.Msgs, aceRes.Msgs, want)
		}
	}
}

// fig7bPair is one benchmark's Figure 7b run pair.
type fig7bPair struct {
	name       string
	sc, custom apputil.Result
}

// runFig7b runs every benchmark on Ace under sequential consistency and
// under its application-specific protocols (Figure 7b) at small scale,
// 4 procs, and checks that both runs of a pair computed the same answer
// and sent traffic.
func runFig7b(t *testing.T) []fig7bPair {
	t.Helper()
	w := WorkloadsFor(ScaleSmall, 4)
	sc, custom := Apps(w, false), Apps(w, true)
	var pairs []fig7bPair
	for i, a := range sc {
		scRes, err := RunAce(w.Procs, a.Run)
		if err != nil {
			t.Fatalf("%s (sc): %v", a.Name, err)
		}
		cuRes, err := RunAce(w.Procs, custom[i].Run)
		if err != nil {
			t.Fatalf("%s (custom): %v", a.Name, err)
		}
		if !checksumsMatch(scRes.Checksum, cuRes.Checksum) {
			t.Errorf("%s: checksum mismatch sc vs custom: %v vs %v", a.Name, scRes.Checksum, cuRes.Checksum)
		}
		if scRes.Msgs == 0 || cuRes.Msgs == 0 {
			t.Errorf("%s: zero traffic recorded", a.Name)
		}
		pairs = append(pairs, fig7bPair{a.Name, scRes, cuRes})
	}
	return pairs
}

// TestFig7bSmall pins the traffic of every Figure 7b run pair. The
// update protocols cut barnes-hut and em3d traffic by 3×, and
// homewrite's self-invalidation costs bsc a few messages — the paper's
// "marginal".
func TestFig7bSmall(t *testing.T) {
	for _, p := range runFig7b(t) {
		want := fig7Msgs[p.name]
		if want.sc != 0 && p.sc.Msgs != want.sc {
			t.Errorf("%s: sc sent %d msgs, want %d", p.name, p.sc.Msgs, want.sc)
		}
		if want.custom != 0 && p.custom.Msgs != want.custom {
			t.Errorf("%s: custom sent %d msgs, want %d", p.name, p.custom.Msgs, want.custom)
		}
	}
}

// TestFig7bTrafficShape checks the message-count shape that drives the
// paper's Figure 7b relationally, so it also holds for the rows whose
// counts depend on lock order: the update-family protocols cut
// barnes-hut and em3d traffic, and water's pipeline+null schedule sends
// fewer messages than its sc run.
func TestFig7bTrafficShape(t *testing.T) {
	for _, p := range runFig7b(t) {
		switch p.name {
		case "barnes-hut", "em3d", "water":
			if p.custom.Msgs >= p.sc.Msgs {
				t.Errorf("%s: custom sent %d msgs, sc %d; want fewer", p.name, p.custom.Msgs, p.sc.Msgs)
			}
		}
		// TSP's atomic-counter win is a round-trip effect, not a
		// message-count one (acquire+release is four messages either
		// way), and bsc's homewrite pays a few messages for
		// self-invalidation: runFig7b's nonzero-traffic check is all
		// either gets here.
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
	for _, a := range Apps(w, false) {
		sc, err := RunAce(w.Procs, a.Run)
		if err != nil {
			t.Fatalf("%s (sc): %v", a.Name, err)
		}
		ad, err := RunAceAdaptive(w.Procs, a.Run, cfg)
		if err != nil {
			t.Fatalf("%s (adaptive): %v", a.Name, err)
		}
		if !checksumsMatch(sc.Checksum, ad.Result.Checksum) {
			t.Errorf("%s: adaptive checksum %v, sc %v", a.Name, ad.Result.Checksum, sc.Checksum)
		}
		want := landing[a.Name]
		if len(ad.Metrics.Adapt) != 1 {
			t.Errorf("%s: adapt stats for %d spaces, want 1: %+v", a.Name, len(ad.Metrics.Adapt), ad.Metrics.Adapt)
			continue
		}
		if got := ad.Metrics.Adapt[0]; got.Protocol != want.proto || got.Switches != want.switches {
			t.Errorf("%s: landed on %q after %d switches, want %q after %d",
				a.Name, got.Protocol, got.Switches, want.proto, want.switches)
		}
	}
}

// TestEM3DWritesHitFastPath pins the logged write hit on em3d at small
// scale. Each value space holds Nodes regions, each written by its home
// once at construction (under sc, a plain fast write) and once per
// step. The ChangeProtocol after construction withdraws every
// fast bit, so each E region's first write (step 0, before anything
// else touches it) opens on the slow path; the H regions are republished
// by their homes' step-0 reads first. The republished bit is
// FastWriteLogged under both protocols, so after that first open every
// write bracket — every close included — is one CAS: the slow opens
// are exactly E's Nodes, and no close is slow.
func TestEM3DWritesHitFastPath(t *testing.T) {
	w := WorkloadsFor(ScaleSmall, 4)
	for _, proto := range []string{"staticupdate", "update"} {
		cfg := w.EM3D
		cfg.Proto = proto
		o, err := RunAceObserved(w.Procs, func(rt rtiface.RT) (apputil.Result, error) { return em3d.Run(rt, cfg) })
		if err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
		var spaces []trace.SpaceMetrics
		for _, s := range o.Metrics.Spaces {
			if s.Protocol == proto {
				spaces = append(spaces, s)
			}
		}
		if len(spaces) != 2 {
			t.Fatalf("%s: %d value spaces, want 2", proto, len(spaces))
		}
		for i, want := range []uint64{uint64(cfg.Nodes), 0} {
			s := spaces[i]
			if got := s.Ops[trace.OpStartWrite]; got != uint64(cfg.Nodes*(cfg.Steps+1)) {
				t.Errorf("%s: space %d ran %d write sections, want %d", proto, s.Space, got, cfg.Nodes*(cfg.Steps+1))
			}
			slowOpen := s.Ops[trace.OpStartWrite] - s.FastOps[trace.OpStartWrite]
			slowClose := s.Ops[trace.OpEndWrite] - s.FastOps[trace.OpEndWrite]
			if slowOpen != want || slowClose != 0 {
				t.Errorf("%s: space %d: %d slow write opens and %d slow closes, want %d and 0",
					proto, s.Space, slowOpen, slowClose, want)
			}
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
