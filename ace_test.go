package ace_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/acedsm/ace"
)

// countingProto is a minimal user protocol defined purely against the
// public API.
type countingProto struct{ ace.Base }

func (c *countingProto) Name() string { return "counting" }

// TestPublicAPIEndToEnd exercises the whole public surface: cluster
// construction with the default (full) registry, spaces, regions,
// sections, locks, barriers, collectives, ChangeProtocol and the
// observability layer.
func TestPublicAPIEndToEnd(t *testing.T) {
	cl, err := ace.NewCluster(ace.Options{
		Procs: 4,
		Trace: &ace.TraceConfig{Metrics: true, Events: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *ace.Proc) error {
		sp, err := p.NewSpace("sc")
		if err != nil {
			return err
		}
		var id ace.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 16)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		for i := 0; i < 25; i++ {
			p.Lock(r)
			p.StartWrite(r)
			r.Data.SetInt64(0, r.Data.Int64(0)+1)
			p.EndWrite(r)
			p.Unlock(r)
		}
		p.Barrier(sp)
		p.StartRead(r)
		total := r.Data.Int64(0)
		p.EndRead(r)
		if total != 100 {
			return fmt.Errorf("total = %d", total)
		}
		if got := p.AllReduceInt64(ace.OpSum, 1); got != 4 {
			return fmt.Errorf("allreduce = %d", got)
		}
		if err := p.ChangeProtocol(sp, "update"); err != nil {
			return err
		}
		p.StartRead(r)
		preserved := r.Data.Int64(0)
		p.EndRead(r)
		if preserved != 100 {
			return fmt.Errorf("data lost across ChangeProtocol: %d", preserved)
		}
		p.Unmap(r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	m := cl.Metrics()
	if m.Net.MsgsSent == 0 {
		t.Error("no traffic recorded")
	}
	if got := m.Ops.Get(ace.OpStartWrite); got != 4*25 {
		t.Errorf("start_write count = %d, want %d", got, 4*25)
	}
	if len(m.Spaces) == 0 || m.Spaces[0].Protocol == "" {
		t.Errorf("space metrics missing: %+v", m.Spaces)
	}
	// The event ring retained operations and exports valid Chrome JSON.
	if len(cl.TraceEvents()) == 0 {
		t.Error("no trace events retained")
	}
	var buf bytes.Buffer
	if err := cl.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Error("WriteTrace produced invalid JSON")
	}
}

// TestDefaultRegistryHasLibrary: NewCluster installs the protocol library
// when no registry is given.
func TestDefaultRegistryHasLibrary(t *testing.T) {
	reg := ace.NewRegistry()
	for _, name := range []string{"sc", "null", "update", "staticupdate", "migratory", "pipeline", "atomic", "homewrite", "writethrough", "racecheck"} {
		if _, ok := reg.Lookup(name); !ok {
			t.Errorf("registry missing %q", name)
		}
	}
	var sb strings.Builder
	if err := reg.WriteConfig(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "protocol update {") {
		t.Error("config file missing update protocol")
	}
}

// TestUserDefinedProtocolThroughPublicAPI registers a protocol written
// against the public types only.
func TestUserDefinedProtocolThroughPublicAPI(t *testing.T) {
	reg := ace.NewRegistry()
	err := reg.Register(ace.Info{
		Name:        "counting",
		New:         func() ace.Protocol { return &countingProto{} },
		Optimizable: true,
		Null:        ace.PointSet(0).With(ace.PointMap),
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := ace.NewCluster(ace.Options{Procs: 2, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *ace.Proc) error {
		sp, err := p.NewSpace("counting")
		if err != nil {
			return err
		}
		id := p.GMalloc(sp, 8)
		r := p.Map(id)
		p.StartWrite(r)
		r.Data.SetInt64(0, int64(p.ID()))
		p.EndWrite(r)
		p.StartRead(r)
		if r.Data.Int64(0) != int64(p.ID()) {
			return fmt.Errorf("local data lost")
		}
		p.EndRead(r)
		p.Barrier(sp)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPointConstants: the re-exported constants match the internal ones
// (compile-time aliasing plus a runtime sanity check).
func TestPointConstants(t *testing.T) {
	if ace.PointMap.String() != "map" || ace.PointUnlock.String() != "unlock" {
		t.Error("point constants misaligned")
	}
	s := ace.PointSet(0).With(ace.PointBarrier)
	if !s.Has(ace.PointBarrier) || s.Has(ace.PointLock) {
		t.Error("point set ops broken through facade")
	}
}

// TestFailureModelThroughPublicAPI exercises the failure-model surface:
// Options.Faults stresses a correct workload (which must still compute
// the right answer, with the injected faults visible in Metrics), and
// Options.SyncTimeout turns a stalled barrier into ErrSyncStall.
func TestFailureModelThroughPublicAPI(t *testing.T) {
	cl, err := ace.NewCluster(ace.Options{
		Procs: 3,
		Trace: &ace.TraceConfig{Metrics: true},
		Faults: &ace.FaultPolicy{
			Seed:        5,
			Delay:       50 * time.Microsecond,
			Jitter:      100 * time.Microsecond,
			DropProb:    0.2,
			ReorderProb: 0.2,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *ace.Proc) error {
		sp := p.DefaultSpace()
		var id ace.RegionID
		if p.ID() == 0 {
			id = p.GMalloc(sp, 8)
		}
		id = p.BroadcastID(0, id)
		r := p.Map(id)
		for i := 0; i < 6; i++ {
			if p.ID() == i%3 {
				p.StartWrite(r)
				r.Data.SetInt64(0, int64(i+1))
				p.EndWrite(r)
			}
			p.Barrier(sp)
			p.StartRead(r)
			got := r.Data.Int64(0)
			p.EndRead(r)
			if got != int64(i+1) {
				return fmt.Errorf("round %d: read %d", i, got)
			}
			p.Barrier(sp)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.Metrics().Net.Faults.Total() == 0 {
		t.Error("no faults counted despite Options.Faults")
	}

	stall, err := ace.NewCluster(ace.Options{Procs: 2, SyncTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer stall.Close()
	err = stall.Run(func(p *ace.Proc) error {
		if p.ID() == 1 {
			return nil // never reaches the barrier
		}
		p.GlobalBarrier()
		return nil
	})
	if !errors.Is(err, ace.ErrSyncStall) {
		t.Fatalf("stalled Run error = %v, want ErrSyncStall", err)
	}
	var se *ace.SyncStallError
	if !errors.As(err, &se) {
		t.Fatalf("stalled Run error = %#v, want *SyncStallError", err)
	}
}
