package chaos

import (
	"strings"
	"testing"

	"github.com/acedsm/ace/internal/trace"
)

// fixedSeeds are the seeds the acceptance gate pins: the full
// protocol × policy matrix must hold for every one of them.
var fixedSeeds = []int64{1, 2, 3}

// TestMatrixFixedSeeds runs every library protocol under every fault
// policy for the fixed seeds. Any failure prints its replay command.
func TestMatrixFixedSeeds(t *testing.T) {
	seeds := fixedSeeds
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, protocol := range Protocols() {
		for _, policy := range Policies() {
			protocol, policy := protocol, policy
			t.Run(protocol+"/"+policy, func(t *testing.T) {
				t.Parallel()
				for _, seed := range seeds {
					rep := Run(Config{Seed: seed, Protocol: protocol, Policy: policy})
					if rep.Err != nil {
						t.Fatal(FormatReport(rep))
					}
					// Per-message policies must visibly inject, and the
					// partition policy's first window is open while the
					// drill sets up.
					perMessage := policy == "jittery" || policy == "lossy" || policy == "slow"
					if perMessage && rep.Faults.Total() == 0 {
						t.Fatalf("seed %d: policy %q injected no faults", seed, policy)
					}
					if policy == "partitioned" && rep.Faults[trace.FaultPartition] == 0 {
						t.Fatalf("seed %d: partitioned policy held no message", seed)
					}
					if policy == "clean" && rep.Faults.Total() != 0 {
						t.Fatalf("seed %d: clean policy injected %d faults", seed, rep.Faults.Total())
					}
				}
			})
		}
	}
}

// TestBrokenDoubleCaughtDeterministically pins the harness's teeth and
// its replay guarantee: the deliberately broken protocol must fail, and
// two runs with the same seed must produce the identical error — the
// property that makes the printed replay command trustworthy.
func TestBrokenDoubleCaughtDeterministically(t *testing.T) {
	first := Run(Config{Seed: 1, Protocol: "broken"})
	if first.Err == nil {
		t.Fatal("broken protocol passed the conformance harness")
	}
	if !strings.Contains(first.Replay, "-run 'TestMatrixFixedSeeds/broken/clean'") ||
		!strings.Contains(first.Replay, "(seed 1)") {
		t.Fatalf("replay command does not identify the run: %q", first.Replay)
	}
	second := Run(Config{Seed: 1, Protocol: "broken"})
	if second.Err == nil {
		t.Fatal("broken protocol passed on replay")
	}
	if first.Err.Error() != second.Err.Error() {
		t.Fatalf("replay diverged:\n  first:  %v\n  second: %v", first.Err, second.Err)
	}
	// A different seed exercises a different schedule and so (in
	// general) trips at a different position — the seed is load-bearing.
	other := Run(Config{Seed: 2, Protocol: "broken"})
	if other.Err == nil {
		t.Fatal("broken protocol passed under seed 2")
	}
}

// TestBrokenDoubleCaughtUnderFaults: fault timing must not let the
// broken protocol slip through, and the failure stays deterministic
// because divergence is checked against a seed-derived model, not
// against timing.
func TestBrokenDoubleCaughtUnderFaults(t *testing.T) {
	for _, policy := range []string{"jittery", "lossy"} {
		rep := Run(Config{Seed: 1, Protocol: "broken", Policy: policy})
		if rep.Err == nil {
			t.Fatalf("broken protocol passed under %s faults", policy)
		}
	}
}

// TestUnknownNamesRejected: bad protocol or policy names are reported
// as errors, not panics or silent passes.
func TestUnknownNamesRejected(t *testing.T) {
	if rep := Run(Config{Seed: 1, Protocol: "nosuch"}); rep.Err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if rep := Run(Config{Seed: 1, Protocol: "sc", Policy: "nosuch"}); rep.Err == nil {
		t.Fatal("unknown policy accepted")
	}
	if _, err := PolicyByName("nosuch", 1); err == nil {
		t.Fatal("PolicyByName accepted an unknown name")
	}
}

// TestPolicyCatalogCoherent: every named policy builds, and "clean"
// alone is the nil (no-fault-layer) policy.
func TestPolicyCatalogCoherent(t *testing.T) {
	for _, name := range Policies() {
		pol, err := PolicyByName(name, 7)
		if err != nil {
			t.Fatalf("policy %q: %v", name, err)
		}
		if (pol == nil) != (name == "clean") {
			t.Fatalf("policy %q: nil-ness = %v", name, pol == nil)
		}
	}
}

// TestReplayNamesSeed: every runner's replay line names its fixed-seed
// test, the cell and the seed. An unknown policy returns at once, with
// the line already written.
func TestReplayNamesSeed(t *testing.T) {
	cfg := Config{Seed: 7, Protocol: "sc", Policy: "nosuch"}
	for _, tc := range []struct {
		test string
		run  func() Report
	}{
		{"TestMatrixFixedSeeds", func() Report { return Run(cfg) }},
		{"TestRejoinFixedSeeds", func() Report { return RunRejoin(RejoinConfig{Config: cfg}) }},
		{"TestSpaceChurnFixedSeeds", func() Report { return RunSpaceChurn(cfg) }},
	} {
		rep := tc.run()
		if rep.Err == nil {
			t.Fatalf("%s: unknown policy accepted", tc.test)
		}
		want := "go test ./internal/chaos -run '" + tc.test + "/sc/nosuch' (seed 7)"
		if rep.Replay != want {
			t.Errorf("%s: replay %q, want %q", tc.test, rep.Replay, want)
		}
	}
}
