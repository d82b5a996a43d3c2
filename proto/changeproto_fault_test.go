package proto_test

import (
	"sync"
	"testing"

	"github.com/acedsm/ace/internal/chaos"
	"github.com/acedsm/ace/internal/trace"
)

// ChangeProtocol conformance under faults: every optimizable protocol
// is switched away from and back mid-schedule, with concurrent traffic
// on both sides of each switch, on clean / jittery / lossy transports.
// The flush-to-base semantics of ChangeProtocol mean the sequential
// model must keep holding across both switches whatever the wire does.

// TestChangeProtocolUnderFaultMatrix is the protocol × fault-policy
// matrix for mid-run protocol switches: every optimizable protocol that
// takes the turn-based schedule, on every transport condition.
// (pipeline, whose contract is additive rather than last-writer-wins,
// has its own test below; "null" is not coherent by contract.)
func TestChangeProtocolUnderFaultMatrix(t *testing.T) {
	protocols := []string{
		"sc", "migratory", "update", "atomic", "writethrough",
		"homewrite", "staticupdate", "racecheck",
	}
	for _, protoName := range protocols {
		for _, pol := range []string{"clean", "jittery", "lossy"} {
			drill(t, protoName+"/"+pol, true,
				chaos.Config{Seed: 42, Procs: 4, Regions: 5, Turns: 30, Protocol: protoName, Policy: pol})
		}
	}
}

// TestAdaptiveControllerUnderFaults covers controller-driven switching
// on each transport condition through the drill's adaptive row: a
// cluster started on sc with the online controller enabled must keep
// the sequential model throughout, land on staticupdate after the
// read-dominated home-writer churn (the drill checks this in every
// worker), and compose a manual ChangeProtocol to sc with whatever the
// controller installed. The controller decides from counted aggregates
// only, so transport timing may delay its collectives but not move its
// decisions: every policy must end with the same switches at the same
// epoch. Two schedule turns, one on each side of the drill's switch,
// keep the cell about the controller churn.
func TestAdaptiveControllerUnderFaults(t *testing.T) {
	policies := []string{"clean", "jittery", "lossy"}
	var mu sync.Mutex
	landed := make(map[string]trace.AdaptStats)
	t.Cleanup(func() {
		want, ok := landed[policies[0]]
		for _, pol := range policies[1:] {
			got, have := landed[pol]
			if !ok || !have {
				return // a cell already failed
			}
			if got.Switches != want.Switches || got.LastSwitchEpoch != want.LastSwitchEpoch {
				t.Errorf("%s: %d switches, last at epoch %d; %s: %d, last at epoch %d",
					pol, got.Switches, got.LastSwitchEpoch,
					policies[0], want.Switches, want.LastSwitchEpoch)
			}
		}
	})
	for _, pol := range policies {
		t.Run(pol, func(t *testing.T) {
			t.Parallel()
			cfg := chaos.Config{Seed: 42, Procs: 4, Regions: 5, Turns: 2, Protocol: "adaptive", Policy: pol}
			rep := chaos.Run(cfg)
			checkDrill(t, rep, cfg)
			mu.Lock()
			landed[pol] = rep.Adapt
			mu.Unlock()
		})
	}
}

// TestPipelineChangeProtocolUnderFaults covers the one optimizable
// protocol with additive write semantics: every processor contributes
// an addend per turn, the space switches to sc mid-run (flushed sums
// must survive, and sc must keep summing) and back (accumulation must
// resume), on each transport condition.
func TestPipelineChangeProtocolUnderFaults(t *testing.T) {
	for _, pol := range []string{"clean", "jittery", "lossy"} {
		drill(t, pol, true,
			chaos.Config{Seed: 42, Procs: 4, Regions: 1, Turns: 10, Protocol: "pipeline", Policy: pol})
	}
}
