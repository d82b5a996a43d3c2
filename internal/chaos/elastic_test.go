package chaos

import (
	"strings"
	"testing"
)

// rejoinProtocols are the push-family and invalidate protocols the
// rejoin acceptance gate pins (the full matrix lives in the plain
// conformance suite; the rejoin drill adds the crash/restore axis).
var rejoinProtocols = []string{"sc", "update", "staticupdate", "writethrough"}

// TestRejoinFixedSeeds: kill → rejoin under every timing policy, for
// the fixed seeds. The drill checkpoints mid-schedule, kills a
// seed-picked victim, revives, restores through the binary codec, and
// re-executes to the sequential model's answer.
func TestRejoinFixedSeeds(t *testing.T) {
	seeds := fixedSeeds
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, protocol := range rejoinProtocols {
		for _, policy := range []string{"clean", "jittery", "lossy", "partitioned"} {
			protocol, policy := protocol, policy
			t.Run(protocol+"/"+policy, func(t *testing.T) {
				t.Parallel()
				for _, seed := range seeds {
					rep := RunRejoin(RejoinConfig{Config: Config{
						Seed: seed, Protocol: protocol, Policy: policy,
					}})
					if rep.Err != nil {
						t.Fatal(FormatReport(rep))
					}
				}
			})
		}
	}
}

// TestBrokenRejoinCaught pins the rejoin drill's teeth the way the
// broken protocol pins the conformance harness's: a damaged checkpoint
// must fail the rejoin loudly and deterministically — a truncated file
// at decode time, a silently corrupted one at the restore audit — and
// two runs with the same seed must produce the identical error.
func TestBrokenRejoinCaught(t *testing.T) {
	truncate := func(rank int, enc []byte) []byte {
		if rank == 0 {
			return enc[:len(enc)/2]
		}
		return enc
	}
	first := RunRejoin(RejoinConfig{Config: Config{Seed: 1, Protocol: "sc"}, Mutate: truncate})
	if first.Err == nil {
		t.Fatal("truncated checkpoint passed the rejoin drill")
	}
	if !strings.Contains(first.Err.Error(), "checkpoint") {
		t.Fatalf("truncation error does not blame the checkpoint: %v", first.Err)
	}
	second := RunRejoin(RejoinConfig{Config: Config{Seed: 1, Protocol: "sc"}, Mutate: truncate})
	if second.Err == nil || second.Err.Error() != first.Err.Error() {
		t.Fatalf("truncation replay diverged:\n  first:  %v\n  second: %v", first.Err, second.Err)
	}

	// Flip the high byte of the last checkpointed value on rank 0: the
	// codec accepts it, so the restore audit must catch the divergence
	// from the model at the checkpoint.
	flip := func(rank int, enc []byte) []byte {
		if rank == 0 {
			enc = append([]byte(nil), enc...)
			enc[len(enc)-1] ^= 0xff
		}
		return enc
	}
	corA := RunRejoin(RejoinConfig{Config: Config{Seed: 1, Protocol: "sc"}, Mutate: flip})
	if corA.Err == nil {
		t.Fatal("corrupted checkpoint passed the rejoin drill")
	}
	if !strings.Contains(corA.Err.Error(), "restored region") {
		t.Fatalf("corruption was not caught by the restore audit: %v", corA.Err)
	}
	corB := RunRejoin(RejoinConfig{Config: Config{Seed: 1, Protocol: "sc"}, Mutate: flip})
	if corB.Err == nil || corB.Err.Error() != corA.Err.Error() {
		t.Fatalf("corruption replay diverged:\n  first:  %v\n  second: %v", corA.Err, corB.Err)
	}
}

// TestMigrateFixedSeeds: MigrateHome mid-workload across the push
// family (and sc), under the per-message policies, for the fixed
// seeds. The drill rotates region homes every few turns while the
// model-checked schedule runs, then proves the new homes are
// first-class writers.
func TestMigrateFixedSeeds(t *testing.T) {
	seeds := fixedSeeds
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, protocol := range []string{"sc", "update", "staticupdate", "writethrough"} {
		for _, policy := range []string{"clean", "jittery", "lossy"} {
			protocol, policy := protocol, policy
			t.Run(protocol+"/"+policy, func(t *testing.T) {
				t.Parallel()
				for _, seed := range seeds {
					rep := RunMigrate(MigrateConfig{Config: Config{
						Seed: seed, Protocol: protocol, Policy: policy,
					}})
					if rep.Err != nil {
						t.Fatal(FormatReport(rep))
					}
				}
			})
		}
	}
}

// TestElasticDrillsNeedTwoProcs: the rejoin drill needs a victim and
// the re-homing drill a second home, so one processor is an error, not
// a silent run on the default four.
func TestElasticDrillsNeedTwoProcs(t *testing.T) {
	cfg := Config{Seed: 1, Procs: 1, Protocol: "sc"}
	if rep := RunRejoin(RejoinConfig{Config: cfg}); rep.Err == nil {
		t.Error("rejoin drill ran on one processor")
	}
	if rep := RunMigrate(MigrateConfig{Config: cfg}); rep.Err == nil {
		t.Error("migrate drill ran on one processor")
	}
}
