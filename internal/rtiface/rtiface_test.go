package rtiface_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/acedsm/ace/internal/core"
	"github.com/acedsm/ace/internal/crl"
	"github.com/acedsm/ace/internal/rtiface"
	"github.com/acedsm/ace/proto"
)

// program is a runtime-neutral workload used to check that both adapters
// expose identical semantics.
func program(rt rtiface.RT) (int64, error) {
	var id core.RegionID
	if rt.ID() == 0 {
		id = rt.Malloc(8)
	}
	id = rt.BroadcastID(0, id)
	h := rt.Map(id)
	for i := 0; i < 30; i++ {
		rt.StartWrite(h)
		h.Data().SetInt64(0, h.Data().Int64(0)+1)
		rt.EndWrite(h)
	}
	rt.Barrier()
	rt.StartRead(h)
	total := h.Data().Int64(0)
	rt.EndRead(h)
	rt.Unmap(h)
	if got := rt.AllReduceInt64(core.OpMax, total); got != total {
		return 0, fmt.Errorf("allreduce disagrees: %d vs %d", got, total)
	}
	return total, nil
}

func TestAdaptersAgree(t *testing.T) {
	const procs = 3
	runAce := func() int64 {
		cl, err := core.NewCluster(core.Options{Procs: procs, Registry: proto.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		var mu sync.Mutex
		var out int64
		if err := cl.Run(func(p *core.Proc) error {
			v, err := program(rtiface.NewAce(p))
			if p.ID() == 0 {
				mu.Lock()
				out = v
				mu.Unlock()
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	runCRL := func() int64 {
		cl, err := crl.NewCluster(crl.Options{Procs: procs})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		var mu sync.Mutex
		var out int64
		if err := cl.Run(func(p *crl.Proc) error {
			v, err := program(rtiface.NewCRL(p))
			if p.ID() == 0 {
				mu.Lock()
				out = v
				mu.Unlock()
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, c := runAce(), runCRL()
	if a != 90 || c != 90 {
		t.Fatalf("ace=%d crl=%d, want 90", a, c)
	}
}

func TestAdapterNamesAndSpaces(t *testing.T) {
	cl, err := core.NewCluster(core.Options{Procs: 2, Registry: proto.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *core.Proc) error {
		rt := rtiface.NewAce(p)
		if rt.Name() != "ace" {
			return fmt.Errorf("name = %q", rt.Name())
		}
		var srt rtiface.SpaceRT = rt
		sp, err := srt.NewSpace("update")
		if err != nil {
			return err
		}
		id := srt.MallocIn(sp, 8)
		h := rt.Map(id)
		rt.StartWrite(h)
		h.Data().SetInt64(0, 7)
		rt.EndWrite(h)
		srt.BarrierSpace(sp)
		if err := srt.ChangeProtocol(sp, "sc"); err != nil {
			return err
		}
		rt.StartRead(h)
		if h.Data().Int64(0) != 7 {
			return fmt.Errorf("data lost across ChangeProtocol")
		}
		rt.EndRead(h)
		rt.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCRLHasNoSpaces(t *testing.T) {
	cl, err := crl.NewCluster(crl.Options{Procs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *crl.Proc) error {
		rt := rtiface.NewCRL(p)
		if rt.Name() != "crl" {
			return fmt.Errorf("name = %q", rt.Name())
		}
		if _, ok := any(rt).(rtiface.SpaceRT); ok {
			return fmt.Errorf("CRL adapter must not claim SpaceRT")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCRLLockViaExclusiveSection(t *testing.T) {
	// The CRL adapter emulates Lock with an exclusive section; increments
	// under it must not be lost.
	const procs, incs = 4, 25
	cl, err := crl.NewCluster(crl.Options{Procs: procs})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Run(func(p *crl.Proc) error {
		rt := rtiface.NewCRL(p)
		var id core.RegionID
		if rt.ID() == 0 {
			id = rt.Malloc(8)
		}
		id = rt.BroadcastID(0, id)
		h := rt.Map(id)
		for i := 0; i < incs; i++ {
			rt.Lock(h)
			h.Data().SetInt64(0, h.Data().Int64(0)+1)
			rt.Unlock(h)
		}
		rt.Barrier()
		rt.StartRead(h)
		got := h.Data().Int64(0)
		rt.EndRead(h)
		if got != procs*incs {
			return fmt.Errorf("got %d, want %d", got, procs*incs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
