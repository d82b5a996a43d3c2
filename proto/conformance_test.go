package proto_test

import (
	"fmt"
	"testing"

	"github.com/acedsm/ace/internal/chaos"
)

// Cross-protocol conformance: a randomized, turn-based schedule of reads
// and writes is executed under several protocols and checked against a
// sequential memory model. Turns are separated by barriers, so every
// protocol in the library must make each read observe the model's value —
// the protocols differ in *how* data moves, never in *what* a correctly
// synchronized program reads. Each cell runs the full chaos drill: the
// schedule's first half under the protocol, its lock phase where it has
// one, then a mid-schedule ChangeProtocol and back.

// drill runs one conformance cell through chaos.Run as a subtest.
func drill(t *testing.T, name string, parallel bool, cfg chaos.Config) {
	t.Run(name, func(t *testing.T) {
		if parallel {
			t.Parallel()
		}
		if rep := chaos.Run(cfg); rep.Err != nil {
			t.Fatal(rep.Err)
		}
	})
}

func TestProtocolConformanceRandomSchedules(t *testing.T) {
	// Protocols with unrestricted writers.
	protocols := []string{"sc", "migratory", "update", "atomic", "writethrough"}
	for seed := int64(0); seed < 4; seed++ {
		for _, protoName := range protocols {
			drill(t, fmt.Sprintf("%s/seed%d", protoName, seed), false,
				chaos.Config{Seed: seed, Procs: 4, Regions: 5, Turns: 40, Protocol: protoName})
		}
	}
}

// TestHomeWriterConformance covers the write-restricted protocols
// (homewrite, staticupdate): the drill only lets a region's home write
// it while they are installed.
func TestHomeWriterConformance(t *testing.T) {
	for seed := int64(10); seed < 13; seed++ {
		for _, protoName := range []string{"homewrite", "staticupdate"} {
			drill(t, fmt.Sprintf("%s/seed%d", protoName, seed), false,
				chaos.Config{Seed: seed, Procs: 3, Regions: 4, Turns: 30, Protocol: protoName})
		}
	}
}
