package proto

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/faultnet"
	"github.com/acedsm/ace/internal/trace"
)

// ChangeProtocol conformance under faults: every optimizable protocol
// is switched away from and back mid-schedule, with concurrent traffic
// on both sides of each switch, on clean / jittery / lossy transports.
// The flush-to-base semantics of ChangeProtocol mean the sequential
// model must keep holding across both switches whatever the wire does.

// faultPolicyNames orders the transport conditions of the matrix.
var faultPolicyNames = []string{"clean", "jittery", "lossy"}

// faultPolicyFor builds the named transport condition; "clean" is nil
// (no fault layer).
func faultPolicyFor(name string, seed int64) *faultnet.Policy {
	switch name {
	case "jittery":
		return &faultnet.Policy{
			Seed:   seed,
			Delay:  100 * time.Microsecond,
			Jitter: 400 * time.Microsecond,
		}
	case "lossy":
		return &faultnet.Policy{
			Seed:        seed,
			Delay:       50 * time.Microsecond,
			DropProb:    0.15,
			ReorderProb: 0.15,
		}
	}
	return nil
}

// runSwitchSchedule runs the first half of the schedule under protoName,
// switches the space to other (verifying the flushed state), runs the
// second half under other, switches back, and finishes with a
// home-writer round — all against the sequential model.
func runSwitchSchedule(t *testing.T, protoName, other string, procs, nRegions int, ops []schedOp, pol *faultnet.Policy) {
	t.Helper()
	cl, err := core.NewCluster(core.Options{
		Procs:           procs,
		Registry:        NewRegistry(),
		DefaultProtocol: protoName,
		Faults:          pol,
		// A divergence makes peers stall at the next barrier; fail typed
		// rather than hang the suite.
		SyncTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *core.Proc) error {
		model := make([]int64, nRegions)
		sp := p.DefaultSpace()
		hs := setupScheduleRegions(p, sp, nRegions)
		runHalf := func(half []schedOp, offset int, active string) error {
			for i, op := range half {
				if op.proc == p.ID() {
					h := hs[op.region]
					if op.write {
						p.StartWrite(h)
						h.Data.SetInt64(0, op.value)
						p.EndWrite(h)
					} else {
						p.StartRead(h)
						got := h.Data.Int64(0)
						p.EndRead(h)
						if want := model[op.region]; got != want {
							return fmt.Errorf("%s: op %d: proc %d read region %d = %d, model %d",
								active, offset+i, p.ID(), op.region, got, want)
						}
					}
				}
				if op.write {
					model[op.region] = op.value
				}
				p.Barrier(sp)
			}
			return nil
		}
		checkAll := func(stage string) error {
			for r := 0; r < nRegions; r++ {
				p.StartRead(hs[r])
				got := hs[r].Data.Int64(0)
				p.EndRead(hs[r])
				if want := model[r]; got != want {
					return fmt.Errorf("%s: region %d = %d, model %d", stage, r, got, want)
				}
			}
			return nil
		}
		half := len(ops) / 2
		if err := runHalf(ops[:half], 0, protoName); err != nil {
			return err
		}
		if err := p.ChangeProtocol(sp, other); err != nil {
			return err
		}
		if err := checkAll("after switch to " + other); err != nil {
			return err
		}
		p.Barrier(sp)
		if err := runHalf(ops[half:], half, other); err != nil {
			return err
		}
		if err := p.ChangeProtocol(sp, protoName); err != nil {
			return err
		}
		// A home write is legal under every protocol, restricted or not.
		for r := 0; r < nRegions; r++ {
			if r%procs == p.ID() {
				p.StartWrite(hs[r])
				hs[r].Data.SetInt64(0, model[r]+100)
				p.EndWrite(hs[r])
			}
			model[r] += 100
		}
		p.Barrier(sp)
		if err := checkAll("after switch back to " + protoName); err != nil {
			return err
		}
		p.Barrier(sp)
		return nil
	})
	if err != nil {
		t.Fatalf("%s⇄%s: %v", protoName, other, err)
	}
}

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
	const procs, nRegions, nTurns, seed = 4, 5, 30, 42
	for _, protoName := range protocols {
		// Switch to a protocol with unrestricted writers so the second
		// half of the schedule stays legal as generated.
		other := "sc"
		if protoName == "sc" {
			other = "update"
		}
		rng := rand.New(rand.NewSource(seed))
		ops := genSchedule(rng, procs, nRegions, nTurns)
		if protoName == "homewrite" || protoName == "staticupdate" {
			half := len(ops) / 2
			for i := range ops[:half] {
				if ops[i].write {
					ops[i].proc = ops[i].region % procs
				}
			}
		}
		for _, polName := range faultPolicyNames {
			protoName, other, polName := protoName, other, polName
			ops := ops
			t.Run(fmt.Sprintf("%s/%s", protoName, polName), func(t *testing.T) {
				t.Parallel()
				runSwitchSchedule(t, protoName, other, procs, nRegions, ops, faultPolicyFor(polName, seed))
			})
		}
	}
}

// TestAdaptiveControllerUnderFaults covers controller-driven switching
// on each transport condition: a cluster started on sc with the online
// controller enabled runs a read-dominated home-writer workload, the
// controller must converge on staticupdate mid-schedule without ever
// breaking the sequential model, and a manual ChangeProtocol issued on
// top of the controller's choice must flush and compose with it (both go
// through the same collective). The controller decides from counted
// aggregates only, so transport timing may delay its collectives but
// not move its decisions: every policy must switch at the same epoch.
func TestAdaptiveControllerUnderFaults(t *testing.T) {
	const procs, nRegions, iters, seed = 4, 5, 8, 42
	var mu sync.Mutex
	landed := make(map[string]trace.AdaptStats)
	t.Cleanup(func() {
		want, ok := landed[faultPolicyNames[0]]
		for _, polName := range faultPolicyNames[1:] {
			got, have := landed[polName]
			if !ok || !have {
				return // a cell already failed
			}
			if got.Switches != want.Switches || got.LastSwitchEpoch != want.LastSwitchEpoch {
				t.Errorf("%s: %d switches, last at epoch %d; %s: %d, last at epoch %d",
					polName, got.Switches, got.LastSwitchEpoch,
					faultPolicyNames[0], want.Switches, want.LastSwitchEpoch)
			}
		}
	})
	for _, polName := range faultPolicyNames {
		polName := polName
		t.Run(polName, func(t *testing.T) {
			t.Parallel()
			cl, err := core.NewCluster(core.Options{
				Procs:           procs,
				Registry:        NewRegistry(),
				DefaultProtocol: "sc",
				Adapt:           &core.AdaptConfig{EpochBarriers: 2, Hysteresis: 2, Cooldown: 1, MinOps: 1},
				Faults:          faultPolicyFor(polName, seed),
				SyncTimeout:     30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			err = cl.Run(func(p *core.Proc) error {
				sp := p.DefaultSpace()
				hs := setupScheduleRegions(p, sp, nRegions)
				model := make([]int64, nRegions)
				checkAll := func(stage string) error {
					for r := 0; r < nRegions; r++ {
						p.StartRead(hs[r])
						got := hs[r].Data.Int64(0)
						p.EndRead(hs[r])
						if want := model[r]; got != want {
							return fmt.Errorf("%s: region %d = %d, model %d (installed: %s)",
								stage, r, got, want, sp.ProtoName)
						}
					}
					return nil
				}
				for e := 0; e < iters; e++ {
					for r := 0; r < nRegions; r++ {
						v := int64(100*e + r + 1)
						if r%procs == p.ID() {
							p.StartWrite(hs[r])
							hs[r].Data.SetInt64(0, v)
							p.EndWrite(hs[r])
						}
						model[r] = v
					}
					p.Barrier(sp)
					if err := checkAll(fmt.Sprintf("iteration %d", e)); err != nil {
						return err
					}
					p.Barrier(sp)
				}
				if sp.ProtoName != "staticupdate" {
					return fmt.Errorf("controller landed on %q, want staticupdate", sp.ProtoName)
				}
				if p.ID() == 0 {
					for _, a := range p.Snapshot().Adapt {
						if a.Space == sp.ID {
							mu.Lock()
							landed[polName] = a
							mu.Unlock()
						}
					}
				}
				if err := p.ChangeProtocol(sp, "sc"); err != nil {
					return err
				}
				if err := checkAll("after manual switch to sc"); err != nil {
					return err
				}
				p.Barrier(sp)
				return nil
			})
			if err != nil {
				t.Fatalf("adaptive/%s: %v", polName, err)
			}
		})
	}
}

// TestPipelineChangeProtocolUnderFaults covers the one optimizable
// protocol with additive write semantics: every processor contributes
// an addend per turn, the space switches to sc (flushed sums must
// survive) and back (accumulation must resume), on each transport
// condition.
func TestPipelineChangeProtocolUnderFaults(t *testing.T) {
	const procs, turns, seed = 4, 10, 42
	for _, polName := range faultPolicyNames {
		polName := polName
		t.Run(polName, func(t *testing.T) {
			t.Parallel()
			cl, err := core.NewCluster(core.Options{
				Procs:           procs,
				Registry:        NewRegistry(),
				DefaultProtocol: "pipeline",
				Faults:          faultPolicyFor(polName, seed),
				SyncTimeout:     30 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			err = cl.Run(func(p *core.Proc) error {
				sp := p.DefaultSpace()
				hs := setupScheduleRegions(p, sp, 1)
				h := hs[0]
				model := 0.0
				perTurn := float64(procs * (procs + 1) / 2)
				turn := func(i int) error {
					p.StartWrite(h)
					h.Data.SetFloat64(0, h.Data.Float64(0)+float64(p.ID()+1))
					p.EndWrite(h)
					p.Barrier(sp)
					model += perTurn
					p.StartRead(h)
					got := h.Data.Float64(0)
					p.EndRead(h)
					if got != model {
						return fmt.Errorf("turn %d: sum = %v, model %v", i, got, model)
					}
					p.Barrier(sp)
					return nil
				}
				for i := 0; i < turns; i++ {
					if err := turn(i); err != nil {
						return err
					}
				}
				if err := p.ChangeProtocol(sp, "sc"); err != nil {
					return err
				}
				p.StartRead(h)
				got := h.Data.Float64(0)
				p.EndRead(h)
				if got != model {
					return fmt.Errorf("after switch to sc: sum = %v, model %v", got, model)
				}
				p.Barrier(sp)
				if err := p.ChangeProtocol(sp, "pipeline"); err != nil {
					return err
				}
				return turn(turns)
			})
			if err != nil {
				t.Fatalf("pipeline/%s: %v", polName, err)
			}
		})
	}
}
